package prob

import "bayescrowd/internal/ctable"

// All-variable marginal sweeps. The UBS/HHS candidate scan needs, for a
// connected component and every variable x it holds, the joint vector
//
//	m_x[a] = Pr(component ∧ x=a)
//
// because each constant-comparison candidate on x is then a partial sum
// of m_x — no model counting per candidate at all. Computing the vectors
// one variable at a time would cost a full solve per variable; this file
// computes all of them in a single pass of the compiled clause-state
// engine (state.go) instead, by propagating per-variable vectors up the
// same recursion stAdpll runs: branch nodes mix child vectors weighted by
// the branch distribution, decomposition nodes scale each component's
// vectors by the product of its siblings' values, and direct-rule leaves
// (every variable occurring exactly once) yield their vectors in closed
// form. The pass visits exactly the subproblems stAdpll would and reuses
// its stDirectProb/stComponents/stPickVar steps in the same order, so its
// scalar result is bit-identical to a plain solve; the vector bookkeeping
// rides along at a small constant factor. The frozen engine corpus
// (state_equiv_test.go) pins the vectors bit for bit, and
// TestSweepVectorsMatchNaive checks them against Naive enumeration.
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
// needed variable. Entered only on a fresh solver (empty assignment),
// like prob.
func (s *solver) marginals(laid [][]ctable.Lit) (float64, marginalSet) {
	s.stCompile(laid)
	s.stTrail = s.stTrail[:0]
	s.stIdx = s.stIdx[:0]
	for c := range laid {
		s.stIdx = append(s.stIdx, int32(c))
	}
	clauses := s.stIdx[:len(laid)]
	p, m := s.stAllMarginals(clauses)
	s.stIdx = s.stIdx[:0]
	return p, m
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

// stAllMarginals is the sweep pass over a clause-index list: filter the
// satisfied clauses, then recurse through direct leaves, branch nodes and
// decompositions, returning the subformula's probability and the needed
// variables' joint vectors. The frame's arena carvings are reclaimed on
// exit, like stAdpll.
func (s *solver) stAllMarginals(clauses []int32) (float64, marginalSet) {
	rbase := len(s.stIdx)
	for _, c := range clauses {
		if !s.stClauseSat(c) {
			s.stIdx = append(s.stIdx, c)
		}
	}
	residual := s.stIdx[rbase:len(s.stIdx)]
	if len(residual) == 0 {
		s.stIdx = s.stIdx[:rbase]
		return 1, nil
	}
	p, m := s.stAllMarginalsInner(residual)
	s.stIdx = s.stIdx[:rbase]
	return p, m
}

func (s *solver) stAllMarginalsInner(residual []int32) (float64, marginalSet) {
	if p, ok := s.stDirectProb(residual); ok {
		return p, s.stLeafMarginals(residual)
	}
	if s.opt.NoComponents {
		return s.stBranchMarginals(residual, s.stPickVar(residual))
	}
	// A one-clause residual is trivially a single component; skip the
	// union-find (same branch decision, same arithmetic).
	if len(residual) == 1 {
		return s.stBranchMarginals(residual, s.stPickVar(residual))
	}
	comps, single := s.stComponents(residual)
	if single {
		return s.stBranchMarginals(residual, s.stPickVar(residual))
	}
	// Decompose as stAdpll does, including the early return once the
	// product hits zero (the remaining components' vectors would all be
	// zero anyway — the nil set says exactly that).
	p := 1.0
	vals := make([]float64, len(comps))
	sets := make([]marginalSet, len(comps))
	for i, comp := range comps {
		if direct, ok := s.stDirectProb(comp); ok {
			vals[i], sets[i] = direct, s.stLeafMarginals(comp)
			p *= direct
			continue
		}
		vals[i], sets[i] = s.stBranchMarginals(comp, s.stPickVar(comp))
		p *= vals[i]
		if p == 0 {
			return 0, nil
		}
	}
	// Each component's vectors are scaled by the product of the sibling
	// values (prefix × suffix, no division, zero-safe).
	suf := 1.0
	sufs := make([]float64, len(comps))
	for i := len(comps) - 1; i >= 0; i-- {
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
	return p, out
}

// stBranchMarginals enumerates the branch variable's values through the
// trail like stBranch, mixing the children's vectors weighted by the
// branch distribution. A needed variable a child eliminated before
// branching on it contributes its independent product instead.
func (s *solver) stBranchMarginals(clauses []int32, v int32) (float64, marginalSet) {
	// Collect the needed free variables up front: children report vectors
	// for the variables they still see, and the merge must fill defaults
	// for the ones a child eliminated — which requires knowing the full
	// set before descending (the epoch marks below are clobbered by the
	// recursion).
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

	dv := s.dists[v]
	var mv []float64
	if s.margNeed[v] {
		mv = make([]float64, len(dv))
	}
	//lint:ignore hotalloc marginal result set handed to the caller, who owns and keeps it
	out := marginalSet{}
	total := 0.0
	for a, pa := range dv {
		if pa == 0 {
			continue
		}
		mark := len(s.stTrail)
		var cv float64
		var cm marginalSet
		// An emptied clause means the child subformula is false: value 0
		// and no vectors.
		if dead := s.stAssign(v, int32(a)); !dead {
			cv, cm = s.stAllMarginals(clauses)
		}
		s.stRewind(mark)
		s.assign[v] = -1
		total += pa * cv
		if mv != nil {
			mv[a] = pa * cv
		}
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
	if mv != nil {
		out[v] = mv
	}
	return total, out
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
						if constLitSat(e, b) {
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

// constLitSat reports whether a constant-comparison literal holds at
// value b of its variable.
func constLitSat(e ctable.Lit, b int) bool {
	if e.Kind == ctable.VarLTConst {
		return int32(b) < e.C
	}
	return int32(b) > e.C
}
