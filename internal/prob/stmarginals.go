package prob

import "bayescrowd/internal/ctable"

// All-variable marginal sweeps. The UBS/HHS candidate scan needs, for a
// connected component and every variable x it holds, the joint vector
//
//	m_x[a] = Pr(component ∧ x=a)
//
// because each constant-comparison candidate on x is then a partial sum
// of m_x — no model counting per candidate at all. Computing the vectors
// one variable at a time would cost a full solve per variable; a sweep
// computes all of them in one run of the ADPLL recursion (state.go) with
// s.sweep set, which propagates per-variable vectors up the recursion:
// branch nodes mix child vectors weighted by the branch distribution
// (mixBranch), decomposition nodes scale each component's vectors by the
// product of its siblings' values (scaleSets), and direct-rule leaves
// (every variable occurring exactly once) yield their vectors in closed
// form (stLeafMarginals). The probability arithmetic is the recursion's
// own, so a sweep's scalar result is the plain solve's; the vector
// bookkeeping rides along at a small constant factor, and with s.sweep
// clear none of it runs. The frozen engine corpus (state_equiv_test.go)
// pins the vectors bit for bit, and TestSweepVectorsMatchNaive checks
// them against Naive enumeration.
//
// Only variables with s.margNeed set get vectors — the scan planner marks
// the variables that actually carry candidates, so var-vs-var-only
// variables don't pay for bookkeeping.

// marginalSet maps solver variable ids to their joint vectors over the
// subformula the set was computed for. A needed variable absent from the
// set was eliminated before any branch constrained it: its joint is the
// independent product value·p(a), filled in by the caller (branch merge
// or scan planner).
type marginalSet map[int32][]float64

// marginals returns Pr(laid) together with the joint vectors of every
// needed variable. It turns the solver's sweep bookkeeping on for the
// rest of the evaluation; solverFor turns it off again.
func (s *solver) marginals(laid [][]ctable.Lit) (float64, marginalSet) {
	s.sweep = true
	return s.stNode(s.stRoot(laid))
}

// stLitProb returns a live literal's effective probability through the
// per-literal memos; the memoized floats are bit-identical to exprProb
// over the literal's effective form.
func (s *solver) stLitProb(ei int32, e ctable.Lit) float64 {
	if e.Kind == ctable.VarGTVar {
		if s.assign[e.X] >= 0 {
			return s.stEffHalf(ei, e, true)
		}
		if s.assign[e.Y] >= 0 {
			return s.stEffHalf(ei, e, false)
		}
	}
	return s.stProbUn(ei, e)
}

// stNeeded returns the needed free variables of a branch node other than
// its branch variable v. Children report vectors for the variables they
// still see, and mixBranch fills defaults for the ones a child
// eliminated, which requires knowing the full set before descending (the
// epoch marks are clobbered by the recursion).
func (s *solver) stNeeded(clauses []int32, v int32) []int32 {
	s.epoch++
	var need []int32
	note := func(x int32) {
		if x != v && s.margNeed[x] && s.seenEp[x] != s.epoch {
			s.seenEp[x] = s.epoch
			need = append(need, x)
		}
	}
	for _, c := range clauses {
		if s.stClauseSat(c) {
			continue
		}
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			s.stVisitEff(s.stExprs[ei], note)
		}
	}
	return need
}

// mixBranch adds one branch value's child, of value cv and vectors cm
// and weighted by pa, into the branch node's vectors out. A needed
// variable the child eliminated before branching on it contributes its
// independent product instead.
func (s *solver) mixBranch(out marginalSet, need []int32, pa, cv float64, cm marginalSet) {
	for _, x := range need {
		vec := out[x]
		if vec == nil {
			vec = make([]float64, len(s.dists[x]))
			out[x] = vec
		}
		if cvec, ok := cm[x]; ok {
			for b, w := range cvec {
				vec[b] += pa * w
			}
		} else if cv != 0 {
			for b, pb := range s.dists[x] {
				vec[b] += pa * cv * pb
			}
		}
	}
}

// scaleSets merges the vectors of a decomposition's components, scaling
// each component's by the product of its siblings' values (prefix ×
// suffix, no division, zero-safe).
func scaleSets(vals []float64, sets []marginalSet) marginalSet {
	suf := 1.0
	sufs := make([]float64, len(vals))
	for i := len(vals) - 1; i >= 0; i-- {
		sufs[i] = suf
		suf *= vals[i]
	}
	//lint:ignore hotalloc marginal result set handed to the caller, who owns and keeps it
	out := marginalSet{}
	pre := 1.0
	for i, set := range sets {
		outer := pre * sufs[i]
		for x, vec := range set {
			for b := range vec {
				vec[b] *= outer
			}
			out[x] = vec
		}
		pre *= vals[i]
	}
	return out
}

// stLeafMarginals yields the joint vectors of a direct-rule residual —
// pairwise variable-disjoint clauses, every effective variable occurring
// once — in closed form, reading each live literal in its effective form:
// fixing x=a resolves x's literal (for a var-vs-var literal, to the
// conditional CDF of the other side), the rest of its clause keeps the
// exclusion product of the other literals, and the other clauses
// contribute their unconditioned probabilities via a prefix × suffix
// outer product.
func (s *solver) stLeafMarginals(residual []int32) marginalSet {
	n := len(residual)
	ps := make([]float64, n)
	anyNeed := false
	for i, c := range residual {
		q := 1.0
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			e := s.stExprs[ei]
			q *= 1 - s.stLitProb(ei, e)
			eff := s.stEffLit(e)
			anyNeed = anyNeed || s.margNeed[eff.X] || (eff.Y >= 0 && s.margNeed[eff.Y])
		}
		ps[i] = 1 - q
	}
	if !anyNeed {
		return nil
	}
	sufs := make([]float64, n+1)
	sufs[n] = 1
	for i := n - 1; i >= 0; i-- {
		sufs[i] = sufs[i+1] * ps[i]
	}

	//lint:ignore hotalloc marginal result set handed to the caller, who owns and keeps it
	out := marginalSet{}
	pre := 1.0
	var qc []float64 // per-literal complement probabilities, reused
	for i, c := range residual {
		outer := pre * sufs[i+1]
		pre *= ps[i]

		qc = qc[:0]
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			qc = append(qc, 1-s.stLitProb(ei, s.stExprs[ei]))
		}
		// qx(k): exclusion product over the clause's other live literals.
		qx := func(k int) float64 {
			q := 1.0
			for j, v := range qc {
				if j != k {
					q *= v
				}
			}
			return q
		}
		k := 0
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			e := s.stEffLit(s.stExprs[ei])
			if s.margNeed[e.X] {
				dx := s.dists[e.X]
				vec := make([]float64, len(dx))
				q := qx(k)
				switch {
				case e.Y < 0:
					for b, pb := range dx {
						if litHolds(e, int32(b), 0) {
							vec[b] = outer * pb
						} else {
							vec[b] = outer * pb * (1 - q)
						}
					}
				default:
					// x > y, conditioned on x=b: the literal holds with
					// probability Pr(y < b), the running CDF of y.
					dy := s.dists[e.Y]
					cdf := 0.0
					for b, pb := range dx {
						if b-1 >= 0 && b-1 < len(dy) {
							cdf += dy[b-1]
						}
						vec[b] = outer * pb * (1 - (1-cdf)*q)
					}
				}
				out[e.X] = vec
			}
			if e.Y >= 0 && s.margNeed[e.Y] {
				// x > y, conditioned on y=c: the literal holds with
				// probability Pr(x > c), the tail mass of x above c.
				dx := s.dists[e.X]
				dy := s.dists[e.Y]
				vec := make([]float64, len(dy))
				q := qx(k)
				tail := 1.0
				for cc, pc := range dy {
					if cc < len(dx) {
						tail -= dx[cc]
					}
					vec[cc] = outer * pc * (1 - (1-tail)*q)
				}
				out[e.Y] = vec
			}
			k++
		}
	}
	return out
}
