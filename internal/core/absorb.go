package core

import (
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/prob"
)

// Absorption is the shared knowledge-absorption path: one crowd answer
// folded into the Knowledge, marked by the ids its Knowledge and
// Evaluator share, and — for a constant comparison under inference that
// moves the variable's bounds — the variable's effective distribution
// renormalised to its narrowed interval. The batch crowd phase and the
// streaming crowd loop both go through it, so an answer means exactly
// the same thing in either mode; both re-simplify with
// Condition.SimplifiedWhere over Touched.
//
// The caller owns the surrounding single-writer discipline: Absorb
// mutates Know and Ev's distributions, so it must only run in the
// sequential gaps between Pr(φ) fan-outs. Ev narrows each distribution
// from its base and records the narrowing (prob.Evaluator.Narrow), so
// its cache keys follow and no cache entry can go stale; a caller that
// wants the entries keyed on a superseded narrowing reclaimed early
// passes the Moved variables to prob.Evaluator.Drop.
type Absorption struct {
	// Know accumulates the answers; Ev narrows the distributions.
	Know *ctable.Knowledge
	Ev   *prob.Evaluator
	// Touched holds, by Ev.IDs id, every variable an absorbed answer
	// mentioned, and Moved each one whose bounds an answer moved. Absorb
	// adds to both; the caller resets them.
	Touched, Moved ctable.IDSet
}

// Absorb folds one answer into the knowledge and marks the variables it
// mentions in Touched. Only a constant comparison under inference can
// narrow a variable's interval: when it moves e.X's bounds, Absorb
// renormalises e.X's distribution and marks it in Moved. An answer that
// leaves the bounds where they were (a repeated one, say) changes no
// distribution, and a var-vs-var answer records a pairwise relation
// only. Errors — conflicts, forgotten variables — pass through from
// Knowledge.Absorb with nothing changed or marked.
func (ab *Absorption) Absorb(e ctable.Expr, rel ctable.Rel) error {
	lo, hi := ab.Know.Bounds(e.X)
	if err := ab.Know.Absorb(e, rel); err != nil {
		return err
	}
	ids := ab.Ev.IDs
	x, numbered := ids.ID(e.X)
	if numbered {
		ab.Touched.Add(x)
	}
	if e.Kind == ctable.VarGTVar {
		if y, ok := ids.ID(e.Y); ok {
			ab.Touched.Add(y)
		}
		return nil
	}
	// Under NoInference the bounds never move.
	if nlo, nhi := ab.Know.Bounds(e.X); nlo != lo || nhi != hi {
		ab.Ev.Narrow(e.X, prob.Interval{Lo: nlo, Hi: nhi})
		ab.Moved.Add(x)
	}
	return nil
}
