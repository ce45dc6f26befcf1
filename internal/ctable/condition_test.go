package ctable

import (
	"reflect"
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

func TestConditionClone(t *testing.T) {
	c := FromClauses([][]Expr{{LTConst(v(0, 0), 2)}})
	cl := c.Clone()
	cl.Clauses[0][0] = GTConst(v(9, 9), 1)
	if c.Clauses[0][0] != LTConst(v(0, 0), 2) {
		t.Fatal("Clone shares clause storage")
	}
}

func knowledgeOver(levels ...int) *Knowledge {
	attrs := make([]dataset.Attribute, len(levels))
	for i, l := range levels {
		attrs[i] = dataset.Attribute{Name: "a", Levels: l}
	}
	return NewKnowledge(dataset.New(attrs))
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
	if !reflect.DeepEqual(c.Clauses, want) {
		t.Fatalf("Clauses = %v, want %v", c.Clauses, want)
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
