package core

import (
	"errors"
	"slices"
	"testing"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

// TestAbsorptionMarks checks Absorb's marking: every absorbed answer
// marks, by the evaluator's ids, the variables it mentions as Touched,
// but only an answer that moves a variable's bounds narrows its
// distribution and marks it Moved — a repeated answer leaves the bounds
// where they were, and a var-vs-var answer records a relation only. A
// conflicting answer and one on a forgotten variable mark and narrow
// nothing, and under NoInference an answer marks Touched only.
func TestAbsorptionMarks(t *testing.T) {
	x, y, z := ctable.Var{Obj: 0, Attr: 0}, ctable.Var{Obj: 1, Attr: 0}, ctable.Var{Obj: 2, Attr: 0}
	type step struct {
		e       ctable.Expr
		rel     ctable.Rel
		err     error        // the error Absorb must match, or nil
		touched []ctable.Var // marked Touched
		moved   bool         // x marked Moved and narrowed to want
		want    prob.Interval
	}
	run := func(t *testing.T, noInference bool, steps []step) *Absorption {
		t.Helper()
		d := dataset.New([]dataset.Attribute{{Name: "a", Levels: 5}})
		ids := ctable.NewVarIDs([]ctable.Var{x, y, z})
		u := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
		ab := &Absorption{
			Know: ctable.NewKnowledge(d, ids),
			Ev:   &prob.Evaluator{IDs: ids, Vars: []prob.VarState{{Base: u, Dist: u}, {Base: u, Dist: u}, {Base: u, Dist: u}}},
		}
		ab.Know.NoInference = noInference
		ab.Know.Forget(z)
		for i, s := range steps {
			ab.Touched.Reset()
			ab.Moved.Reset()
			prev := ab.Ev.Vars[0]
			err := ab.Absorb(s.e, s.rel)
			if (s.err == nil) != (err == nil) || (s.err != nil && !errors.Is(err, s.err)) {
				t.Fatalf("step %d: Absorb(%v, %v) = %v, want %v", i, s.e, s.rel, err, s.err)
			}
			var touched []ctable.Var
			for _, v := range []ctable.Var{x, y, z} {
				if ab.Touched.HasVar(ids, v) {
					touched = append(touched, v)
				}
			}
			if !slices.Equal(touched, s.touched) {
				t.Fatalf("step %d: touched %v, want %v", i, touched, s.touched)
			}
			if got := ab.Moved.HasVar(ids, x); got != s.moved || len(ab.Moved.IDs) > 1 {
				t.Fatalf("step %d: moved ids %v, want x marked %v", i, ab.Moved.IDs, s.moved)
			}
			st := ab.Ev.Vars[0]
			switch {
			case s.moved && (!st.Narrowed || st.Interval != s.want):
				t.Fatalf("step %d: x's state %+v, want narrowed to %v", i, st, s.want)
			case !s.moved && (st.Narrowed != prev.Narrowed || st.Interval != prev.Interval || &st.Dist[0] != &prev.Dist[0]):
				t.Fatalf("step %d: x's state went from %+v to %+v without a move", i, prev, st)
			}
		}
		return ab
	}

	t.Run("inference", func(t *testing.T) {
		ab := run(t, false, []step{
			{e: ctable.GTConst(x, 1), rel: ctable.GT, touched: []ctable.Var{x}, moved: true, want: prob.Interval{Lo: 2, Hi: 4}},
			{e: ctable.GTConst(x, 1), rel: ctable.GT, touched: []ctable.Var{x}},                                                 // repeated: still [2,4]
			{e: ctable.LTConst(x, 4), rel: ctable.LT, touched: []ctable.Var{x}, moved: true, want: prob.Interval{Lo: 2, Hi: 3}}, // [2,4] -> [2,3]
			{e: ctable.GTVar(x, y), rel: ctable.GT, touched: []ctable.Var{x, y}},                                                // a relation, no bounds
			{e: ctable.LTConst(x, 2), rel: ctable.LT, err: ctable.ErrConflict},                                                  // would empty [2,3]
			{e: ctable.GTVar(x, y), rel: ctable.LT, err: ctable.ErrConflict},                                                    // contradicts x > y
			{e: ctable.GTConst(z, 1), rel: ctable.GT, err: ctable.ErrForgotten},
			{e: ctable.GTVar(y, z), rel: ctable.GT, err: ctable.ErrForgotten},
		})
		if lo, hi := ab.Know.Bounds(x); lo != 2 || hi != 3 {
			t.Fatalf("bounds [%d,%d], want [2,3]", lo, hi)
		}
		if ab.Ev.Vars[1].Narrowed || ab.Ev.Vars[2].Narrowed {
			t.Fatalf("y or z narrowed: %+v", ab.Ev.Vars[1:])
		}
	})
	t.Run("noInference", func(t *testing.T) {
		ab := run(t, true, []step{
			{e: ctable.GTConst(x, 1), rel: ctable.GT, touched: []ctable.Var{x}},
			{e: ctable.LTConst(x, 4), rel: ctable.LT, touched: []ctable.Var{x}},
			{e: ctable.GTVar(x, y), rel: ctable.GT, touched: []ctable.Var{x, y}},
			{e: ctable.GTConst(z, 1), rel: ctable.GT, err: ctable.ErrForgotten},
		})
		if lo, hi := ab.Know.Bounds(x); lo != 0 || hi != 4 {
			t.Fatalf("bounds [%d,%d] under NoInference, want [0,4]", lo, hi)
		}
	})
}
