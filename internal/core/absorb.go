package core

import (
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/prob"
)

// Absorption is the shared knowledge-absorption path: one crowd answer
// folded into the Knowledge and — for constant comparisons under
// inference — the variable's effective distribution renormalised to its
// narrowed interval. The batch crowd phase and the streaming crowd loop
// both go through it, so an answer means exactly the same thing in
// either mode. Each loop marks the variables an answer touched in its
// own IDSets, by the ids its Knowledge and Evaluator share.
//
// The caller owns the surrounding single-writer discipline: Absorb
// mutates Know and Ev's distributions, so it must only run in the
// sequential gaps between Pr(φ) fan-outs. Ev narrows each distribution
// from its base and records the narrowing (prob.Evaluator.Narrow), so
// its cache keys follow and no cache entry can go stale; a caller that
// wants the entries keyed on a superseded narrowing reclaimed early
// passes the renormalised variables to prob.Evaluator.Drop.
type Absorption struct {
	// Know accumulates the answers; Ev narrows the distributions.
	Know *ctable.Knowledge
	Ev   *prob.Evaluator
}

// Absorb folds one answer into the knowledge and reports whether it
// renormalised e.X's distribution. Only constant-comparison answers
// under inference narrow a variable's interval (and hence its
// distribution); var-vs-var answers record a pairwise relation and leave
// distributions untouched. An answer that leaves the bounds where they
// were (a repeated one, say) records the same narrowing again, so no
// cache key changes, yet it still reports a renormalisation. Errors —
// conflicts, forgotten variables — pass through from Knowledge.Absorb
// with nothing changed.
func (ab *Absorption) Absorb(e ctable.Expr, rel ctable.Rel) (renormalised bool, err error) {
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

// IDSet is a set of variable ids under one numbering (ctable.VarIDs):
// membership by index, members listed in insertion order, cleared in
// time proportional to them. It grows to hold the ids added.
type IDSet struct {
	// IDs lists the members in insertion order. Read-only.
	IDs []int32
	in  []bool
}

// Add puts id in the set.
func (s *IDSet) Add(id int32) {
	if int(id) >= len(s.in) {
		s.in = append(s.in, make([]bool, int(id)+1-len(s.in))...)
	}
	if !s.in[id] {
		s.in[id] = true
		s.IDs = append(s.IDs, id)
	}
}

// HasVar reports whether ids numbers v and v's id is in the set.
func (s *IDSet) HasVar(ids *ctable.VarIDs, v ctable.Var) bool {
	id, ok := ids.ID(v)
	return ok && int(id) < len(s.in) && s.in[id]
}

// Reset empties the set.
func (s *IDSet) Reset() {
	for _, id := range s.IDs {
		s.in[id] = false
	}
	s.IDs = s.IDs[:0]
}
