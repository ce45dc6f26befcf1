package core

import (
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/prob"
)

// Absorption is the shared knowledge-absorption path: one crowd answer
// folded into the Knowledge, the variables it touched marked for
// re-simplification, and — for constant comparisons under inference —
// the variable's effective distribution renormalised to its narrowed
// interval. The batch crowd phase and the streaming crowd loop both go
// through it, so an answer means exactly the same thing in either mode.
//
// The caller owns the surrounding single-writer discipline: Absorb
// mutates Know and Ev's distributions, so it must only run in the
// sequential gaps between Pr(φ) fan-outs. Ev narrows each distribution
// from its base and records the narrowing (prob.Evaluator.Narrow), so
// its cache keys follow and no cache entry can go stale; a caller that
// wants the entries keyed on a superseded narrowing reclaimed early
// passes DistChanged to prob.Evaluator.Drop.
type Absorption struct {
	// Know accumulates the answers; Ev narrows the distributions.
	Know *ctable.Knowledge
	Ev   *prob.Evaluator
	// Touched collects every variable an absorbed answer mentioned —
	// the conditions to re-simplify. DistChanged collects the subset
	// whose bounds the answer moved, and with them the effective
	// distribution — the probabilities to recompute even where the
	// condition's structure did not change, and the variables whose
	// cache entries are now dead weight.
	Touched     map[ctable.Var]bool
	DistChanged map[ctable.Var]bool

	buf []ctable.Var
}

// Absorb folds one answer into the knowledge and marks the variables it
// touched. Only constant-comparison answers narrow a variable's
// interval (and hence its distribution); var-vs-var answers record a
// pairwise relation and leave distributions untouched. An answer that
// leaves the bounds where they were (a repeated one, say) records the
// same narrowing again, so no cache key changes and e.X is not marked
// in DistChanged. Errors — conflicts, forgotten variables — pass
// through from Knowledge.Absorb with nothing marked.
func (ab *Absorption) Absorb(e ctable.Expr, rel ctable.Rel) error {
	lo, hi := ab.Know.Bounds(e.X)
	renormalised, err := ab.absorb(e, rel)
	if err != nil {
		return err
	}
	ab.buf = e.Vars(ab.buf[:0])
	for _, v := range ab.buf {
		ab.Touched[v] = true
	}
	if nlo, nhi := ab.Know.Bounds(e.X); renormalised && (nlo != lo || nhi != hi) {
		ab.DistChanged[e.X] = true
	}
	return nil
}

// absorb is Absorb without the marking: it folds the answer into the
// knowledge and reports whether it renormalised e.X's distribution. The
// batch crowd phase marks its own id-indexed sets instead.
func (ab *Absorption) absorb(e ctable.Expr, rel ctable.Rel) (renormalised bool, err error) {
	if err := ab.Know.Absorb(e, rel); err != nil {
		return false, err
	}
	if e.Kind == ctable.VarGTVar || ab.Know.NoInference {
		return false, nil
	}
	lo, hi := ab.Know.Bounds(e.X)
	ab.Ev.Narrow(e.X, prob.Interval{Lo: lo, Hi: hi})
	return true, nil
}
