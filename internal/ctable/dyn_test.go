package ctable

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bayescrowd/internal/bitset"
	"bayescrowd/internal/dataset"
)

// randCells draws one object's cells over the schema with the given
// missing-cell rate.
func randCells(rng *rand.Rand, attrs []dataset.Attribute, missRate float64) []dataset.Cell {
	cells := make([]dataset.Cell, len(attrs))
	for j, a := range attrs {
		if rng.Float64() < missRate {
			cells[j] = dataset.Unknown()
		} else {
			cells[j] = dataset.Known(rng.Intn(a.Levels))
		}
	}
	return cells
}

// renameCond rewrites a dyn condition's variables from stream ids to the
// window indices of a batch rebuild, so the two tables compare literally.
func renameCond(c *Condition, indexOf map[int]int) *Condition {
	if _, decided := c.Decided(); decided {
		return c
	}
	clauses := make([][]Expr, c.NumClauses())
	for i, cl := range c.Clauses() {
		out := make([]Expr, len(cl))
		for k, e := range cl {
			e.X.Obj = indexOf[e.X.Obj]
			if e.Kind == VarGTVar {
				e.Y.Obj = indexOf[e.Y.Obj]
			}
			out[k] = e
		}
		clauses[i] = out
	}
	return FromClauses(clauses)
}

// checkAgainstRebuild asserts that every live condition of the dyn table
// equals the batch Build over the same window, modulo the id↔index
// renaming Window documents.
func checkAgainstRebuild(t *testing.T, dt *DynCTable) {
	t.Helper()
	w, ids := dt.Window()
	ct := Build(w, BuildOptions{Alpha: 0})
	indexOf := make(map[int]int, len(ids))
	for i, id := range ids {
		indexOf[id] = i
	}
	for i, id := range ids {
		got := renameCond(dt.Cond(id, nil), indexOf)
		if got.String() != ct.Conds[i].String() {
			t.Fatalf("id %d (window index %d):\n incremental: %v\n rebuild:     %v",
				id, i, got, ct.Conds[i])
		}
		if dt.DomSize(id) != ct.DomSizes[i] {
			t.Fatalf("id %d: DomSize %d, rebuild says %d", id, dt.DomSize(id), ct.DomSizes[i])
		}
	}
}

func TestDynCTableMatchesRebuildUnderRandomEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		nAttrs := 2 + rng.Intn(4)
		attrs := make([]dataset.Attribute, nAttrs)
		for j := range attrs {
			attrs[j] = dataset.Attribute{Name: "a", Levels: 2 + rng.Intn(7)}
		}
		missRate := 0.05 + rng.Float64()*0.3
		dt := NewDynCTable(attrs, 8) // small capacity: exercise Grow
		var live []int
		for step := 0; step < 120; step++ {
			if len(live) > 0 && rng.Float64() < 0.35 {
				k := rng.Intn(len(live))
				id := live[k]
				live = append(live[:k], live[k+1:]...)
				dt.Evict(id)
			} else {
				id, _ := dt.Insert(randCells(rng, attrs, missRate))
				live = append(live, id)
			}
			if step%10 == 0 || step == 119 {
				checkAgainstRebuild(t, dt)
			}
		}
		if dt.Len() != len(live) {
			t.Fatalf("trial %d: Len %d, tracked %d", trial, dt.Len(), len(live))
		}
	}
}

func TestDynCTableVerifiesAgainstGroundTruth(t *testing.T) {
	// Insert a generated dataset object by object, evict a random third,
	// then check the surviving window's c-table against the ground truth
	// via the batch Verify — sound conditions, not just rebuild-identical.
	rng := rand.New(rand.NewSource(72))
	truth := dataset.GenIndependent(rng, 90, 3, 6)
	inc := truth.InjectMissing(rng, 0.2)
	dt := NewDynCTable(inc.Attrs, 16)
	ids := make([]int, inc.Len())
	for i := range inc.Objects {
		ids[i], _ = dt.Insert(inc.Objects[i].Cells)
	}
	for i := 0; i < inc.Len(); i++ {
		if rng.Float64() < 0.33 {
			dt.Evict(ids[i])
			ids[i] = -1
		}
	}
	// The surviving ground truth, in window order.
	w, wids := dt.Window()
	surviving := dataset.New(truth.Attrs)
	pos := make(map[int]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	for _, id := range wids {
		surviving.MustAppend(truth.Objects[pos[id]])
	}
	ct := Build(w, BuildOptions{Alpha: 0})
	if bad := ct.Verify(surviving); len(bad) != 0 {
		t.Fatalf("window c-table wrong for objects %v", bad)
	}
	checkAgainstRebuild(t, dt)
}

// TestDynCondUnderKnowledge checks the knowledge-filtered window
// condition against the unfiltered one simplified: under random inserts
// and evictions, absorbing random answers — constant and var-vs-var
// comparisons, re-answers that conflict with earlier ones, and every
// fourth trial under NoInference — each live condition built under the
// knowledge has the same stored form as the unfiltered condition's
// simplification, and both are decided alike.
func TestDynCondUnderKnowledge(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const steps = 120
	checked, changed, decided := 0, 0, 0
	conflicts, noInference := 0, 0
	for trial := 0; trial < 8; trial++ {
		nAttrs := 2 + rng.Intn(4)
		attrs := make([]dataset.Attribute, nAttrs)
		for j := range attrs {
			attrs[j] = dataset.Attribute{Name: "a", Levels: 2 + rng.Intn(7)}
		}
		missRate := 0.1 + rng.Float64()*0.3
		dt := NewDynCTable(attrs, 8)
		k := NewKnowledge(dataset.New(attrs), gridIDs(steps, nAttrs))
		k.NoInference = trial%4 == 3
		var live []int
		var asked []Expr
		for step := 0; step < steps; step++ {
			if len(live) > 0 && rng.Float64() < 0.35 {
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				k.Forget(dt.Evict(id)...)
			} else {
				id, _ := dt.Insert(randCells(rng, attrs, missRate))
				live = append(live, id)
			}

			// Two answers a step: a literal of a live condition, a fresh
			// constant comparison, or a re-answer of an earlier question.
			for a := 0; a < 2 && len(live) > 0; a++ {
				var e Expr
				switch r := rng.Float64(); {
				case r < 0.5:
					lits := dt.Cond(live[rng.Intn(len(live))], nil).AppendExprs(nil)
					if len(lits) == 0 {
						continue
					}
					e = lits[rng.Intn(len(lits))]
				case r < 0.8 || len(asked) == 0:
					id := live[rng.Intn(len(live))]
					vars := MissingVars(id, dt.Cells(id), nil)
					if len(vars) == 0 {
						continue
					}
					x := vars[rng.Intn(len(vars))]
					c := rng.Intn(attrs[x.Attr].Levels)
					if rng.Intn(2) == 0 {
						e = LTConst(x, c)
					} else {
						e = GTConst(x, c)
					}
				default:
					e = asked[rng.Intn(len(asked))]
				}
				err := k.Absorb(e, Rel(rng.Intn(3)))
				switch {
				case errors.Is(err, ErrConflict):
					conflicts++
				case errors.Is(err, ErrForgotten):
				case err != nil:
					t.Fatal(err)
				default:
					asked = append(asked, e)
				}
			}

			for _, id := range live {
				plain := dt.Cond(id, nil)
				want := plain.Simplified(k)
				got := dt.Cond(id, k)
				if !sameForm(got, want) {
					t.Fatalf("trial %d step %d id %d: filtered %v, simplified %v", trial, step, id, got, want)
				}
				if _, d := got.Decided(); d {
					decided++
				}
				if want != plain {
					changed++
				}
				if k.NoInference {
					noInference++
				}
				checked++
			}
		}
	}
	if changed == 0 || decided == 0 || conflicts == 0 || noInference == 0 {
		t.Fatalf("vacuous run: %d checked, %d changed by knowledge, %d decided, %d conflicts, %d under NoInference",
			checked, changed, decided, conflicts, noInference)
	}
	t.Logf("%d checked, %d changed by knowledge, %d decided, %d conflicts, %d under NoInference",
		checked, changed, decided, conflicts, noInference)
}

func TestDynCTableDirtyTracking(t *testing.T) {
	attrs := []dataset.Attribute{{Name: "a1", Levels: 4}, {Name: "a2", Levels: 4}}
	dt := NewDynCTable(attrs, 4)

	// o0 strong, o1 weak: o0 possibly dominates o1.
	id0, _ := dt.Insert([]dataset.Cell{dataset.Known(3), dataset.Known(3)})
	if got := dt.DrainDirty(); !reflect.DeepEqual(got, []int{id0}) {
		t.Fatalf("after first insert dirty = %v, want [%d]", got, id0)
	}
	id1, _ := dt.Insert([]dataset.Cell{dataset.Known(1), dataset.Unknown()})
	// The weak newcomer gains a dominator clause; o0's condition is
	// untouched (nothing dominates it), so only id1 is dirty.
	if got := dt.DrainDirty(); !reflect.DeepEqual(got, []int{id1}) {
		t.Fatalf("after weak insert dirty = %v, want [%d]", got, id1)
	}
	if dt.DomSize(id1) != 1 {
		t.Fatalf("DomSize(id1) = %d, want 1", dt.DomSize(id1))
	}
	// Evicting the dominator patches o1's condition: o1 is dirty, the
	// evicted id is not reported.
	dt.Evict(id0)
	if got := dt.DrainDirty(); !reflect.DeepEqual(got, []int{id1}) {
		t.Fatalf("after evict dirty = %v, want [%d]", got, id1)
	}
	if !dt.Cond(id1, nil).IsTrue() {
		t.Fatalf("φ(id1) = %v after dominator left, want true", dt.Cond(id1, nil))
	}
	// Drain is destructive: a second call reports nothing.
	if got := dt.DrainDirty(); got != nil {
		t.Fatalf("second drain = %v, want nil", got)
	}
}

// TestDynCTableDominatees checks Dominatees against a brute-force scan
// of the clause lists under insert/evict churn: for every live object,
// the live ids whose condition has a clause for it (empty or not). A
// small capacity exercises Grow, and evictions recycle slots.
func TestDynCTableDominatees(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	attrs := []dataset.Attribute{{Name: "a1", Levels: 4}, {Name: "a2", Levels: 3}, {Name: "a3", Levels: 5}}
	dt := NewDynCTable(attrs, 4)
	var live []int
	reused, checked := 0, 0
	for step := 0; step < 200; step++ {
		if len(live) > 0 && rng.Float64() < 0.4 {
			k := rng.Intn(len(live))
			dt.Evict(live[k])
			live = append(live[:k], live[k+1:]...)
		} else {
			free := len(dt.free)
			id, _ := dt.Insert(randCells(rng, attrs, 0.25))
			if free > 0 {
				reused++
			}
			live = append(live, id)
		}
		for _, id := range live {
			got := dt.Dominatees(id, []int{-1})
			if got[0] != -1 {
				t.Fatalf("step %d: Dominatees(%d) overwrote dst", step, id)
			}
			got = got[1:]
			sort.Ints(got)
			want := []int{}
			for q := range dt.slots {
				qs := &dt.slots[q]
				if !qs.live || qs.id == id {
					continue
				}
				for _, p := range qs.doms {
					if dt.slots[p].id == id {
						want = append(want, qs.id)
						break
					}
				}
			}
			sort.Ints(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: Dominatees(%d) = %v, clause scan %v", step, id, got, want)
			}
			checked += len(want)
		}
	}
	if reused == 0 || checked == 0 {
		t.Fatalf("vacuous run: %d reused slots, %d dominatees checked", reused, checked)
	}
}

func TestDynCTableEvictReturnsVars(t *testing.T) {
	attrs := []dataset.Attribute{{Name: "a1", Levels: 5}, {Name: "a2", Levels: 5}, {Name: "a3", Levels: 5}}
	dt := NewDynCTable(attrs, 4)
	id, vars := dt.Insert([]dataset.Cell{dataset.Known(2), dataset.Unknown(), dataset.Unknown()})
	want := []Var{{Obj: id, Attr: 1}, {Obj: id, Attr: 2}}
	if !reflect.DeepEqual(vars, want) {
		t.Fatalf("Insert vars = %v, want %v", vars, want)
	}
	if got := dt.Evict(id); !reflect.DeepEqual(got, want) {
		t.Fatalf("Evict vars = %v, want %v", got, want)
	}
	if dt.Len() != 0 {
		t.Fatalf("Len = %d after evicting the only object", dt.Len())
	}
}

func TestDynCTableIDsNeverReused(t *testing.T) {
	attrs := []dataset.Attribute{{Name: "a1", Levels: 3}}
	dt := NewDynCTable(attrs, 2)
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		id, _ := dt.Insert([]dataset.Cell{dataset.Known(i % 3)})
		if seen[id] {
			t.Fatalf("stream id %d reused", id)
		}
		seen[id] = true
		dt.Evict(id) // slot recycles, the id must not
	}
}

func TestDynDomIndexMatchesPairwisePredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	attrs := []dataset.Attribute{{Name: "a1", Levels: 4}, {Name: "a2", Levels: 5}, {Name: "a3", Levels: 3}}
	ix := NewDynDomIndex(attrs, 8)
	type obj struct {
		slot  int
		cells []dataset.Cell
	}
	var liveObjs []obj
	nextSlot := 0
	dom := bitset.New(ix.Cap())
	rev := bitset.New(ix.Cap())

	// possiblyDominates reports p ≻? o: p observed-and-≥ or missing on
	// every attribute o observes (Definition 5's candidate test).
	possiblyDominates := func(p, o []dataset.Cell) bool {
		for j := range attrs {
			if o[j].Missing || p[j].Missing {
				continue
			}
			if p[j].Value < o[j].Value {
				return false
			}
		}
		return true
	}

	for step := 0; step < 200; step++ {
		if len(liveObjs) > 0 && rng.Float64() < 0.4 {
			k := rng.Intn(len(liveObjs))
			ix.Evict(liveObjs[k].slot, liveObjs[k].cells)
			liveObjs = append(liveObjs[:k], liveObjs[k+1:]...)
			continue
		}
		cells := randCells(rng, attrs, 0.3)
		slot := nextSlot
		nextSlot++
		if slot >= ix.Cap() {
			ix.Grow(2 * ix.Cap())
			dom.Grow(ix.Cap())
			rev.Grow(ix.Cap())
		}
		// Query before inserting, like DynCTable does.
		ix.Dominators(cells, dom)
		ix.Dominatees(cells, rev)
		for _, q := range liveObjs {
			if want := possiblyDominates(q.cells, cells); dom.Test(q.slot) != want {
				t.Fatalf("step %d: Dominators disagrees with pairwise for slot %d (want %v)", step, q.slot, want)
			}
			if want := possiblyDominates(cells, q.cells); rev.Test(q.slot) != want {
				t.Fatalf("step %d: Dominatees disagrees with pairwise for slot %d (want %v)", step, q.slot, want)
			}
		}
		ix.Insert(slot, cells)
		liveObjs = append(liveObjs, obj{slot: slot, cells: cells})
	}
}

func TestKnowledgeForget(t *testing.T) {
	d := dataset.SampleMovies()
	k := NewKnowledge(d, gridIDs(10, d.NumAttrs()))
	// Narrow two variables and relate a third pair.
	if err := k.Absorb(LTConst(v(4, 1), 2), LT); err != nil {
		t.Fatal(err)
	}
	if err := k.Absorb(GTConst(v(4, 2), 1), GT); err != nil {
		t.Fatal(err)
	}
	if err := k.Absorb(GTVar(v(4, 3), v(1, 1)), GT); err != nil {
		t.Fatal(err)
	}
	// Forget everything about object 4. Intervals and the relation go;
	// other objects keep theirs.
	k.Forget(v(4, 1), v(4, 2), v(4, 3))
	if lo, hi := k.Bounds(v(4, 1)); lo != 0 || hi != d.Attrs[1].Levels-1 {
		t.Fatalf("Bounds after Forget = [%d,%d], want full domain", lo, hi)
	}
	if _, decided := k.Eval(GTVar(v(4, 3), v(1, 1))); decided {
		t.Fatal("relation mentioning a forgotten variable still decided")
	}
}

func TestKnowledgeForgetAfterAbsorbConsistency(t *testing.T) {
	// Satellite: Absorb answers, evict the object, and check that pinned
	// values for surviving variables and the conflict count stay
	// consistent — Forget must not erase history or neighbours.
	d := dataset.SampleMovies()
	k := NewKnowledge(d, gridIDs(10, d.NumAttrs()))

	// Pin Var(o5,a2) to exactly 1 and record a conflict against it.
	if err := k.Absorb(LTConst(v(4, 1), 2), LT); err != nil {
		t.Fatal(err)
	}
	if err := k.Absorb(GTConst(v(4, 1), 0), GT); err != nil {
		t.Fatal(err)
	}
	if val, ok := k.Pinned(v(4, 1)); !ok || val != 1 {
		t.Fatalf("Pinned(o5,a2) = %d,%v; want 1,true", val, ok)
	}
	if err := k.Absorb(GTConst(v(4, 1), 3), GT); err == nil {
		t.Fatal("conflicting answer accepted")
	}
	if k.Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", k.Conflicts)
	}
	// Pin a surviving variable too.
	if err := k.Absorb(LTConst(v(1, 1), 1), LT); err != nil {
		t.Fatal(err)
	}

	// Evict object 4: its variables are forgotten.
	k.Forget(v(4, 0), v(4, 1), v(4, 2), v(4, 3))

	// The survivor's pinned value is untouched…
	if val, ok := k.Pinned(v(1, 1)); !ok || val != 0 {
		t.Fatalf("surviving Pinned(o2,a2) = %d,%v; want 0,true", val, ok)
	}
	// …the forgotten variable is wide open again…
	if _, ok := k.Pinned(v(4, 1)); ok {
		t.Fatal("forgotten variable still pinned")
	}
	// …and conflicts already charged remain historical fact.
	if k.Conflicts != 1 {
		t.Fatalf("Conflicts after Forget = %d, want 1", k.Conflicts)
	}

	// Fresh answers about a re-used attribute slot of a *new* object id
	// start from the full domain (no aliasing with the departed object).
	if err := k.Absorb(GTConst(v(9, 1), 2), GT); err != nil {
		t.Fatalf("fresh object absorbed with error: %v", err)
	}
}

func TestKnowledgeForgetNoInference(t *testing.T) {
	d := dataset.SampleMovies()
	k := NewKnowledge(d, gridIDs(10, d.NumAttrs()))
	k.NoInference = true
	if err := k.Absorb(LTConst(v(4, 1), 2), LT); err != nil {
		t.Fatal(err)
	}
	if err := k.Absorb(GTVar(v(0, 1), v(4, 2)), GT); err != nil {
		t.Fatal(err)
	}
	if err := k.Absorb(LTConst(v(1, 1), 3), LT); err != nil {
		t.Fatal(err)
	}
	k.Forget(v(4, 1), v(4, 2))
	if _, decided := k.Eval(LTConst(v(4, 1), 2)); decided {
		t.Fatal("answered expression on forgotten variable still decided")
	}
	if _, decided := k.Eval(GTVar(v(0, 1), v(4, 2))); decided {
		t.Fatal("var-var expression whose right operand was forgotten still decided")
	}
	if val, decided := k.Eval(LTConst(v(1, 1), 3)); !decided || !val {
		t.Fatal("unrelated answered expression lost by Forget")
	}
}
