package core

import (
	"testing"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

// TestAbsorbMarksDistChangedOnlyWhenBoundsMove checks Absorb's marking:
// every absorbed answer marks the variables it mentions as touched, but
// only an answer that moves a variable's bounds marks it in
// DistChanged — a repeated answer re-records the same narrowing, and a
// var-vs-var answer renormalises nothing.
func TestAbsorbMarksDistChangedOnlyWhenBoundsMove(t *testing.T) {
	attrs := []dataset.Attribute{{Name: "a", Levels: 5}}
	x, y := ctable.Var{Obj: 0, Attr: 0}, ctable.Var{Obj: 1, Attr: 0}
	uniform := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	ab := &Absorption{
		Know: ctable.NewKnowledge(dataset.New(attrs)),
		Ev:   prob.NewEvaluator(prob.Dists{x: uniform, y: uniform}),
	}
	steps := []struct {
		e           ctable.Expr
		rel         ctable.Rel
		distChanged bool
	}{
		{ctable.GTConst(x, 1), ctable.GT, true},  // [0,4] -> [2,4]
		{ctable.GTConst(x, 1), ctable.GT, false}, // repeated: still [2,4]
		{ctable.LTConst(x, 4), ctable.LT, true},  // [2,4] -> [2,3]
		{ctable.GTVar(x, y), ctable.GT, false},   // a relation, no bounds
	}
	for i, s := range steps {
		ab.Touched, ab.DistChanged = map[ctable.Var]bool{}, map[ctable.Var]bool{}
		if err := ab.Absorb(s.e, s.rel); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		for _, v := range s.e.Vars(nil) {
			if !ab.Touched[v] {
				t.Fatalf("step %d: %v not touched", i, v)
			}
		}
		if got := ab.DistChanged[x]; got != s.distChanged || len(ab.DistChanged) > 1 {
			t.Fatalf("step %d: DistChanged %v, want x marked %v", i, ab.DistChanged, s.distChanged)
		}
	}
	if lo, hi := ab.Know.Bounds(x); lo != 2 || hi != 3 {
		t.Fatalf("bounds [%d,%d], want [2,3]", lo, hi)
	}
}
