package ctable

import (
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/bitset"
	"bayescrowd/internal/dataset"
)

// v is shorthand for a variable with 0-based indices.
func v(obj, attr int) Var { return Var{Obj: obj, Attr: attr} }

func TestPaperTable4DominatorSets(t *testing.T) {
	d := dataset.SampleMovies()
	ix := NewDomIndex(d)
	want := [][]int{
		{4},    // D(o1) = {o5}
		{},     // D(o2) = ∅
		{},     // D(o3) = ∅
		{1, 4}, // D(o4) = {o2, o5}
		{0, 1}, // D(o5) = {o1, o2}
	}
	out := bitset.New(d.Len())
	for o, wantSet := range want {
		ix.Dominators(d, o, out)
		if got := out.Members(); !reflect.DeepEqual(got, wantSet) {
			t.Errorf("D(o%d) = %v, want %v", o+1, got, wantSet)
		}
		DominatorsPairwise(d, o, out)
		if got := out.Members(); !reflect.DeepEqual(got, wantSet) {
			t.Errorf("pairwise D(o%d) = %v, want %v", o+1, got, wantSet)
		}
	}
}

func TestPaperTable3Conditions(t *testing.T) {
	d := dataset.SampleMovies()
	ct := Build(d, BuildOptions{Alpha: 1}) // no pruning at this scale

	// o2 and o3 are certain skyline objects.
	if !ct.Conds[1].IsTrue() || !ct.Conds[2].IsTrue() {
		t.Fatalf("φ(o2)=%v φ(o3)=%v, want true/true", ct.Conds[1], ct.Conds[2])
	}

	// φ(o1) = Var(o5,a2)<2 ∨ Var(o5,a3)<3 ∨ Var(o5,a4)<4.
	wantO1 := [][]Expr{{
		LTConst(v(4, 1), 2), LTConst(v(4, 2), 3), LTConst(v(4, 3), 4),
	}}
	if !reflect.DeepEqual(ct.Conds[0].Clauses(), wantO1) {
		t.Errorf("φ(o1) = %v", ct.Conds[0])
	}

	// φ(o4) = (Var(o2,a2)<3) ∧ [Var(o5,a2)<3 ∨ Var(o5,a3)<1 ∨ Var(o5,a4)<2].
	wantO4 := [][]Expr{
		{LTConst(v(1, 1), 3)},
		{LTConst(v(4, 1), 3), LTConst(v(4, 2), 1), LTConst(v(4, 3), 2)},
	}
	if !reflect.DeepEqual(ct.Conds[3].Clauses(), wantO4) {
		t.Errorf("φ(o4) = %v", ct.Conds[3])
	}

	// φ(o5) = [Var(o5,a2)>2 ∨ Var(o5,a3)>3 ∨ Var(o5,a4)>4]
	//       ∧ [Var(o5,a2)>Var(o2,a2) ∨ Var(o5,a3)>2 ∨ Var(o5,a4)>2].
	wantO5 := [][]Expr{
		{GTConst(v(4, 1), 2), GTConst(v(4, 2), 3), GTConst(v(4, 3), 4)},
		{GTVar(v(4, 1), v(1, 1)), GTConst(v(4, 2), 2), GTConst(v(4, 3), 2)},
	}
	if !reflect.DeepEqual(ct.Conds[4].Clauses(), wantO5) {
		t.Errorf("φ(o5) = %v", ct.Conds[4])
	}
}

func TestFastEqualsPairwiseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(120)
		d := rng.Intn(6) + 2
		levels := rng.Intn(8) + 2
		ds := dataset.GenIndependent(rng, n, d, levels).InjectMissing(rng, 0.05+rng.Float64()*0.25)
		ix := NewDomIndex(ds)
		fast := bitset.New(n)
		slow := bitset.New(n)
		for o := 0; o < n; o++ {
			ix.Dominators(ds, o, fast)
			DominatorsPairwise(ds, o, slow)
			if !fast.Equal(slow) {
				t.Fatalf("trial %d object %d: fast %v != pairwise %v", trial, o, fast, slow)
			}
			if fast.Test(o) {
				t.Fatalf("trial %d: object %d in its own dominator set", trial, o)
			}
		}
	}
}

func TestBuildPairwiseMatchesFast(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	ds := dataset.GenCorrelated(rng, 150, 4, 6, 0.5).InjectMissing(rng, 0.15)
	a := Build(ds, BuildOptions{Alpha: 0.2})
	b := Build(ds, BuildOptions{Alpha: 0.2, Pairwise: true})
	for o := range a.Conds {
		if a.Conds[o].String() != b.Conds[o].String() {
			t.Fatalf("object %d: fast %v != pairwise %v", o, a.Conds[o], b.Conds[o])
		}
	}
	if a.Pruned != b.Pruned {
		t.Fatalf("pruned %d vs %d", a.Pruned, b.Pruned)
	}
}

func TestBuildVerifiesAgainstGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		truth := dataset.GenIndependent(rng, 80+rng.Intn(80), 3+rng.Intn(3), 4+rng.Intn(6))
		inc := truth.InjectMissing(rng, 0.1+rng.Float64()*0.15)
		ct := Build(inc, BuildOptions{Alpha: 0}) // Alpha <= 0: no pruning
		if bad := ct.Verify(truth); len(bad) != 0 {
			t.Fatalf("trial %d: c-table wrong for objects %v", trial, bad)
		}
	}
}

func TestBuildAlphaPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	truth := dataset.GenIndependent(rng, 300, 4, 8)
	inc := truth.InjectMissing(rng, 0.2)
	loose := Build(inc, BuildOptions{Alpha: 1})
	tight := Build(inc, BuildOptions{Alpha: 0.02})
	if tight.Pruned <= loose.Pruned {
		t.Fatalf("tight α pruned %d, loose pruned %d; want strictly more", tight.Pruned, loose.Pruned)
	}
	// Pruning must only ever flip conditions to false.
	for o := range tight.Conds {
		if tight.PrunedByAlpha[o] && !tight.Conds[o].IsFalse() {
			t.Fatalf("pruned object %d has condition %v", o, tight.Conds[o])
		}
	}
	// And Verify must still pass (pruned objects are excused).
	if bad := tight.Verify(truth); len(bad) != 0 {
		t.Fatalf("pruned c-table wrong for objects %v", bad)
	}
}

func TestBuildCompleteDataMatchesSkyline(t *testing.T) {
	// With no missing cells the c-table must be exactly the skyline
	// membership function (modulo full ties, absent in this workload).
	rng := rand.New(rand.NewSource(35))
	truth := dataset.GenIndependent(rng, 200, 5, 32)
	ct := Build(truth, BuildOptions{Alpha: 0})
	if bad := ct.Verify(truth); len(bad) != 0 {
		t.Fatalf("complete-data c-table wrong for %v", bad)
	}
	for o, c := range ct.Conds {
		if _, decided := c.Decided(); !decided {
			t.Fatalf("complete data left φ(o%d) undecided: %v", o, c)
		}
	}
}

func TestResultSetAndUndecided(t *testing.T) {
	d := dataset.SampleMovies()
	ct := Build(d, BuildOptions{Alpha: 1})
	if got := ct.ResultSet(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("ResultSet = %v, want [1 2]", got)
	}
	if got := ct.Undecided(); !reflect.DeepEqual(got, []int{0, 3, 4}) {
		t.Fatalf("Undecided = %v, want [0 3 4]", got)
	}
}

func TestStaticallyUnsatisfiableExprsDropped(t *testing.T) {
	// o1 = (0, 2) with a2 missing for o2; o2 = (0, missing).
	// Clause [o2 ⊀ o1]: attr1 both 0 → no expr; attr2: Var(o2,a2) < 2.
	// Reversed roles: [o1 ⊀ o2] for o2: attr2: Var(o2,a2) > 2.
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 3}, {Name: "a2", Levels: 3}})
	d.MustAppend(dataset.Object{ID: "o1", Cells: []dataset.Cell{dataset.Known(0), dataset.Known(2)}})
	d.MustAppend(dataset.Object{ID: "o2", Cells: []dataset.Cell{dataset.Known(0), dataset.Unknown()}})
	ct := Build(d, BuildOptions{Alpha: 1})
	// For o1: Var(o2,a2) < 2 is satisfiable, kept.
	if ct.Conds[0].String() != "Var(o2,a2) < 2" {
		t.Errorf("φ(o1) = %v", ct.Conds[0])
	}
	// For o2: the only potential expression is Var(o2,a2) > 2 — statically
	// impossible with Levels=3 — so the clause is empty and φ(o2) false.
	if !ct.Conds[1].IsFalse() {
		t.Errorf("φ(o2) = %v, want false", ct.Conds[1])
	}
}
