package ctable

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bayescrowd/internal/dataset"
)

func TestExprString(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{LTConst(v(4, 1), 2), "Var(o5,a2) < 2"},
		{GTConst(v(4, 2), 3), "Var(o5,a3) > 3"},
		{GTVar(v(4, 1), v(1, 1)), "Var(o5,a2) > Var(o2,a2)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String = %q, want %q", got, tc.want)
		}
	}
}

func TestExprHolds(t *testing.T) {
	cases := []struct {
		e    Expr
		x, y int
		want bool
	}{
		{LTConst(v(0, 0), 3), 2, 0, true},
		{LTConst(v(0, 0), 3), 3, 0, false},
		{GTConst(v(0, 0), 3), 4, 0, true},
		{GTConst(v(0, 0), 3), 3, 0, false},
		{GTVar(v(0, 0), v(1, 0)), 4, 3, true},
		{GTVar(v(0, 0), v(1, 0)), 3, 3, false},
		{GTVar(v(0, 0), v(1, 0)), 2, 3, false},
	}
	for _, tc := range cases {
		if got := tc.e.Holds(tc.x, tc.y); got != tc.want {
			t.Errorf("%v.Holds(%d,%d) = %v, want %v", tc.e, tc.x, tc.y, got, tc.want)
		}
	}
}

func TestExprEvalAssign(t *testing.T) {
	e := GTVar(v(0, 0), v(1, 0))
	if _, decided := e.EvalAssign(map[Var]int{v(0, 0): 3}); decided {
		t.Fatal("half-assigned var-var expression decided")
	}
	if val, decided := e.EvalAssign(map[Var]int{v(0, 0): 3, v(1, 0): 1}); !decided || !val {
		t.Fatalf("EvalAssign = %v,%v", val, decided)
	}
	c := LTConst(v(0, 0), 2)
	if _, decided := c.EvalAssign(nil); decided {
		t.Fatal("unassigned var-const expression decided")
	}
}

func TestConditionConstructorsAndDecided(t *testing.T) {
	if !True().IsTrue() || True().IsFalse() {
		t.Fatal("True() broken")
	}
	if !False().IsFalse() || False().IsTrue() {
		t.Fatal("False() broken")
	}
	if c := FromClauses(nil); !c.IsTrue() {
		t.Fatal("FromClauses(nil) should be true")
	}
	if c := FromClauses([][]Expr{{}}); !c.IsFalse() {
		t.Fatal("FromClauses with empty clause should be false")
	}
	c := FromClauses([][]Expr{{LTConst(v(0, 0), 1)}})
	if _, decided := c.Decided(); decided {
		t.Fatal("non-trivial condition decided at construction")
	}
}

func TestConditionVarsAndExprs(t *testing.T) {
	c := FromClauses([][]Expr{
		{LTConst(v(4, 1), 2), GTVar(v(4, 1), v(1, 1))},
		{GTConst(v(4, 2), 3), LTConst(v(4, 1), 2)}, // duplicate expression
	})
	vars := c.Vars()
	if len(vars) != 3 {
		t.Fatalf("Vars = %v, want 3 distinct", vars)
	}
	if c.NumExprs() != 4 {
		t.Fatalf("NumExprs = %d, want 4", c.NumExprs())
	}
	if got := len(c.Exprs()); got != 3 {
		t.Fatalf("Exprs returned %d, want 3 distinct", got)
	}
}

// TestConditionMentions checks Mentions against Vars: a variable is
// mentioned exactly when Vars lists it, the right operand of a
// var-vs-var literal included, and a decided condition mentions nothing.
func TestConditionMentions(t *testing.T) {
	c := FromClauses([][]Expr{
		{LTConst(v(4, 1), 2), GTVar(v(4, 1), v(1, 1))},
		{GTConst(v(4, 2), 3)},
	})
	in := map[Var]bool{}
	for _, x := range c.Vars() {
		in[x] = true
	}
	for _, x := range []Var{v(4, 1), v(1, 1), v(4, 2), v(1, 2), v(4, 0)} {
		if got := c.Mentions(func(y Var) bool { return y == x }); got != in[x] {
			t.Fatalf("Mentions(%v) = %v, Vars says %v", x, got, in[x])
		}
	}
	all := func(Var) bool { return true }
	if True().Mentions(all) || False().Mentions(all) {
		t.Fatal("a decided condition mentions a variable")
	}
}

func TestConditionClone(t *testing.T) {
	c := FromClauses([][]Expr{{LTConst(v(0, 0), 2)}})
	cl := c.Clone()
	cl.lits[0].C = 7
	if c.Clauses()[0][0] != LTConst(v(0, 0), 2) {
		t.Fatal("Clone shares literal storage")
	}
}

func knowledgeOver(levels ...int) *Knowledge {
	attrs := make([]dataset.Attribute, len(levels))
	for i, l := range levels {
		attrs[i] = dataset.Attribute{Name: "a", Levels: l}
	}
	return NewKnowledge(dataset.New(attrs), gridIDs(16, len(levels)))
}

func TestSimplifyDecidesTrue(t *testing.T) {
	k := knowledgeOver(10)
	if err := k.Absorb(LTConst(v(0, 0), 3), LT); err != nil {
		t.Fatal(err)
	}
	c := FromClauses([][]Expr{{LTConst(v(0, 0), 5), GTConst(v(1, 0), 7)}})
	c = c.Simplified(k)
	if !c.IsTrue() {
		t.Fatalf("condition = %v, want true (x<3 implies x<5)", c)
	}
}

func TestSimplifyDecidesFalse(t *testing.T) {
	k := knowledgeOver(10)
	if err := k.Absorb(GTConst(v(0, 0), 6), GT); err != nil {
		t.Fatal(err)
	}
	c := FromClauses([][]Expr{{LTConst(v(0, 0), 5)}})
	c = c.Simplified(k)
	if !c.IsFalse() {
		t.Fatalf("condition = %v, want false (x>6 contradicts x<5)", c)
	}
}

func TestSimplifyDropsOnlyDecidedExprs(t *testing.T) {
	k := knowledgeOver(10)
	if err := k.Absorb(GTConst(v(0, 0), 6), GT); err != nil { // x in [7,9]
		t.Fatal(err)
	}
	c := FromClauses([][]Expr{
		{LTConst(v(0, 0), 5), GTConst(v(1, 0), 2)}, // first expr now false
		{LTConst(v(2, 0), 4)},                      // untouched
	})
	c = c.Simplified(k)
	if _, decided := c.Decided(); decided {
		t.Fatalf("condition decided prematurely: %v", c)
	}
	want := [][]Expr{{GTConst(v(1, 0), 2)}, {LTConst(v(2, 0), 4)}}
	if !reflect.DeepEqual(c.Clauses(), want) {
		t.Fatalf("Clauses = %v, want %v", c.Clauses(), want)
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	k := knowledgeOver(10)
	c := FromClauses([][]Expr{{LTConst(v(0, 0), 5)}, {GTConst(v(1, 0), 2)}})
	c = c.Simplified(k)
	before := c.String()
	c = c.Simplified(k)
	if c.String() != before {
		t.Fatalf("Simplified not idempotent: %q vs %q", before, c.String())
	}
}

func TestConditionEvalAssign(t *testing.T) {
	c := FromClauses([][]Expr{
		{LTConst(v(0, 0), 3), GTConst(v(1, 0), 5)},
		{GTVar(v(0, 0), v(1, 0))},
	})
	// x=2 (first clause true via x<3), x>y needs 2>y.
	val, decided := c.EvalAssign(map[Var]int{v(0, 0): 2, v(1, 0): 1})
	if !decided || !val {
		t.Fatalf("EvalAssign = %v,%v, want true,true", val, decided)
	}
	val, decided = c.EvalAssign(map[Var]int{v(0, 0): 2, v(1, 0): 4})
	if !decided || val {
		t.Fatalf("EvalAssign = %v,%v, want false,true", val, decided)
	}
	if _, decided = c.EvalAssign(map[Var]int{v(0, 0): 2}); decided {
		t.Fatal("partial assignment decided")
	}
	if val, _ := True().EvalAssign(nil); !val {
		t.Fatal("True().EvalAssign broken")
	}
}

func TestConditionString(t *testing.T) {
	c := FromClauses([][]Expr{
		{LTConst(v(1, 1), 3)},
		{LTConst(v(4, 1), 3), LTConst(v(4, 2), 1)},
	})
	want := "Var(o2,a2) < 3 ∧ [Var(o5,a2) < 3 ∨ Var(o5,a3) < 1]"
	if got := c.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

// TestCanonicalFormMatchesExprCompare checks the stored form against its
// definition on random conditions: the components are the connected
// clause groups, numbered by last clause; each lists its clauses in
// canonical order — every clause's literals sorted by Expr.Compare, the
// clauses sorted lexicographically — and its hash is FNV-1a over the 'P'
// byte and that order's AppendKey encoding; a component is direct
// exactly when each of its variables occurs once.
func TestCanonicalFormMatchesExprCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	var pool []Var
	for o := 0; o < 6; o++ {
		for a := 0; a < 3; a++ {
			pool = append(pool, v(o, a))
		}
	}
	for trial := 0; trial < 300; trial++ {
		c := randomCNF(rng, pool[:2+rng.Intn(len(pool)-1)], 5)
		if _, decided := c.Decided(); decided {
			continue
		}
		clauses := c.Clauses()
		prevLast := -1
		covered := 0
		for g := 0; g < c.NumComponents(); g++ {
			comp := c.Component(g)
			covered += len(comp.Canon)
			last := int(slices.Max(comp.Canon))
			if last <= prevLast {
				t.Fatalf("trial %d: component %d ends at clause %d, after %d", trial, g, last, prevLast)
			}
			prevLast = last
			var want [][]Expr
			for _, ci := range comp.Canon {
				cl := slices.Clone(clauses[ci])
				slices.SortFunc(cl, Expr.Compare)
				want = append(want, cl)
				for _, e := range cl {
					for _, x := range e.Vars(nil) {
						i, _ := c.VarIndex(x)
						if c.VarComponent(i) != g {
							t.Fatalf("trial %d: %v in component %d, its table says %d", trial, x, g, c.VarComponent(i))
						}
					}
				}
			}
			if !slices.IsSortedFunc(want, func(a, b []Expr) int {
				return slices.CompareFunc(a, b, Expr.Compare)
			}) {
				t.Fatalf("trial %d: component %d is not in canonical clause order: %v", trial, g, want)
			}
			key := []byte{'P'}
			count := map[Var]int{}
			for k, ci := range comp.Canon {
				got := c.AppendCanonClause(nil, int(ci))
				key = binary.AppendUvarint(key, uint64(len(got)))
				for j, l := range got {
					if e := c.exprOf(l); e != want[k][j] {
						t.Fatalf("trial %d: clause %d literal %d in canonical order is %v, want %v", trial, ci, j, e, want[k][j])
					}
					key = want[k][j].AppendKey(key)
					for _, x := range want[k][j].Vars(nil) {
						count[x]++
					}
				}
			}
			h := fnv.New64a()
			h.Write(key)
			if comp.Hash != h.Sum64() {
				t.Fatalf("trial %d: component %d hash %x, FNV-1a of its encoding %x", trial, g, comp.Hash, h.Sum64())
			}
			direct := true
			for _, n := range count {
				direct = direct && n == 1
			}
			if comp.Direct != direct {
				t.Fatalf("trial %d: component %d direct %v, want %v", trial, g, comp.Direct, direct)
			}
		}
		if covered != len(clauses) {
			t.Fatalf("trial %d: components cover %d of %d clauses", trial, covered, len(clauses))
		}
	}
}
