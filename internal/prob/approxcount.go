package prob

import (
	"fmt"
	"math/rand"
	"slices"

	"bayescrowd/internal/ctable"
)

// ApproxCount generalises the weighted ApproxCount model counter of Wei &
// Selman ("A New Approach to Model Counting", SAT 2005) to multi-valued
// variables with non-uniform weights — the approximate comparator the
// paper evaluates against ADPLL in §5 and reports losing on both
// efficiency and accuracy.
//
// The original algorithm estimates a model count as a telescoping product:
// sample satisfying assignments (SampleSat), estimate the marginal of one
// variable among them, fix that variable to its most frequent value,
// multiply the running estimate by the inverse marginal, and recurse on
// the simplified formula. Here the count becomes a probability mass, the
// samples are drawn from the variables' distributions restricted to the
// satisfying region by rejection-plus-local-search (the multi-valued
// stand-in for SampleSat), and the marginal estimate is weighted by the
// branch distribution.
//
// samplesPerLevel controls the per-variable sampling effort; typical
// values are 30–200. The estimator is unbiased only asymptotically and —
// as §5 observes — multi-valued variables make satisfying-sample
// generation expensive, which is exactly why ADPLL wins.
func (ev *Evaluator) ApproxCount(c *ctable.Condition, samplesPerLevel int, rng *rand.Rand) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	if samplesPerLevel <= 0 {
		panic(fmt.Sprintf("prob: ApproxCount with %d samples per level", samplesPerLevel))
	}
	s := ev.solverFor(c, 0)
	p := s.approxCount(s.buildClauses(nil, nil), samplesPerLevel, rng)
	s.release()
	return p
}

// approxCount runs one telescoping estimate on the compiled clause state
// (state.go): each level fixes one variable through stAssign, over the
// occurrence list carved from the level's residual, which is read through
// the liveness bits, never rewritten. The trail and the fixed assignments
// are reverted on return.
func (s *solver) approxCount(clauses [][]ctable.Lit, samplesPerLevel int, rng *rand.Rand) float64 {
	for _, cl := range clauses {
		if len(cl) == 0 {
			return 0
		}
	}
	// Each level visits its variables in order of first appearance in
	// the whole clause set.
	s.firstVars(clauses)
	appear := resize(s.appear, len(s.pos))
	copy(appear, s.pos)
	s.appear = appear
	s.stCompile(clauses)
	s.stTrail = s.stTrail[:0]
	defer func() {
		s.stRewind(0)
		s.stIdx = s.stIdx[:0]
		for v := range s.assign {
			s.assign[v] = -1
		}
	}()
	estimate := 1.0
	for {
		s.stIdx = s.stIdx[:0]
		for c := range clauses {
			if !s.stClauseSat(int32(c)) {
				s.stIdx = append(s.stIdx, int32(c))
			}
		}
		residual := s.stIdx
		if len(residual) == 0 {
			return estimate
		}
		// Exact finish when the residual is independent — the cheap exit
		// ADPLL also uses; without it the estimator would sample forever
		// on already-trivial formulas.
		if p, ok := s.stDirectProb(residual); ok {
			return estimate * p
		}

		v := s.stPickVar(residual)
		lits := s.stGatherEff(residual)
		vars := s.firstVars(lits)
		slices.SortFunc(vars, func(a, b int32) int { return int(appear[a] - appear[b]) })

		// Estimate P(v = a | φ) from satisfying samples.
		counts := resizeFillFloats(s.satCounts, len(s.dists[v]), 0)
		s.satCounts = counts
		got := 0
		for i := 0; i < samplesPerLevel; i++ {
			assignment, ok := s.sampleSat(lits, vars, rng)
			if !ok {
				continue
			}
			counts[assignment[v]]++
			got++
		}
		if got == 0 {
			// Could not find satisfying samples: treat the region as
			// (nearly) unsatisfiable, matching ApproxCount's behaviour of
			// giving up with a zero estimate.
			return 0
		}

		// Fix v to its most frequent satisfying value and discount the
		// estimate by that value's conditional share.
		best, bestCount := 0, counts[0]
		for a, cnt := range counts[1:] {
			if cnt > bestCount {
				best, bestCount = a+1, cnt
			}
		}
		share := bestCount / float64(got)
		// Weight by the prior of the fixed value: Pr(φ) =
		// Pr(φ ∧ v=a) / P(v=a | φ) and Pr(φ ∧ v=a) = p(a)·Pr(φ | v=a).
		estimate *= s.dists[v][best] / share
		if dead := s.stAssign(v, int32(best), s.stOccOf(residual, v)); dead {
			return 0
		}
	}
}

// stGatherEff copies the live literals of the residual clauses, in their
// effective form (stEffLit), into reused solver scratch: one clause slice
// per residual clause, in clause and literal order.
func (s *solver) stGatherEff(residual []int32) [][]ctable.Lit {
	s.satLits = s.satLits[:0]
	for _, c := range residual {
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if !s.stLitDead(ei) {
				s.satLits = append(s.satLits, s.stEffLit(s.stExprs[ei]))
			}
		}
	}
	// stLive[c] counts exactly the literals copied for an unsatisfied
	// clause, so the headers are carved after the buffer is final.
	s.satClauses = s.satClauses[:0]
	k := int32(0)
	for _, c := range residual {
		n := s.stLive[c]
		s.satClauses = append(s.satClauses, s.satLits[k:k+n:k+n])
		k += n
	}
	return s.satClauses
}

// draw samples every variable of vars from its distribution, in the
// order listed, into the dense working assignment satAssign.
func (s *solver) draw(vars []int32, rng *rand.Rand) []int32 {
	a := s.satAssign
	for _, v := range vars {
		a[v] = int32(sampleDist(rng, s.dists[v]))
	}
	return a
}

// firstViolated returns the first clause no literal of which holds under
// the dense assignment a, or nil when a satisfies every clause.
func firstViolated(clauses [][]ctable.Lit, a []int32) []ctable.Lit {
	for _, cl := range clauses {
		sat := false
		for _, e := range cl {
			y := int32(0)
			if e.Y >= 0 {
				y = a[e.Y]
			}
			if litHolds(e, a[e.X], y) {
				sat = true
				break
			}
		}
		if !sat {
			return cl
		}
	}
	return nil
}

// monteCarlo estimates the probability of the clause set as the fraction
// of samples full draws of vars (the clause set's variables, drawn in the
// order listed) that satisfy every clause.
func (s *solver) monteCarlo(clauses [][]ctable.Lit, vars []int32, samples int, rng *rand.Rand) float64 {
	hits := 0
	for i := 0; i < samples; i++ {
		if firstViolated(clauses, s.draw(vars, rng)) == nil {
			hits++
		}
	}
	return float64(hits) / float64(samples)
}

// fallbackSamples is the Monte Carlo effort of the ApproxThreshold
// fallback. By Hoeffding's inequality a mean of n independent draws
// misses the true probability by ε or more with probability at most
// 2·exp(−2nε²): at n = 2000 and ε = 0.05 that is 2·e^−10 ≈ 1e-4 per
// component.
const fallbackSamples = 2000

// approxComponent is the ApproxThreshold fallback of keyed: a Monte
// Carlo estimate of a connected component too wide for exact counting.
// The component arrives in canonical order; the rng is seeded from its
// structural hash h (FNV-1a over the canonical encoding), and each draw
// goes to the n-th variable in first-appearance order of that canonical
// clause list. The estimate is thus a pure function of the structure and
// the distributions — identical at any worker count, cache state, and
// clause layout of the condition the component came from.
func (s *solver) approxComponent(comp [][]ctable.Lit, h uint64) float64 {
	rng := rand.New(rand.NewSource(int64(h)))
	s.nApprox++
	return s.monteCarlo(comp, s.firstVars(comp), fallbackSamples, rng)
}

// sampleSat draws one satisfying assignment of the clauses (over vars,
// their variables, drawn in the order listed) by sampling from the
// variable distributions and repairing violated clauses with a bounded
// greedy local search — the multi-valued analogue of SampleSat's WalkSat
// phase. ok is false if no satisfying assignment was reached within the
// repair budget. The returned assignment is dense solver scratch indexed
// by var id, valid until the next draw.
func (s *solver) sampleSat(clauses [][]ctable.Lit, vars []int32, rng *rand.Rand) ([]int32, bool) {
	assignment := s.draw(vars, rng)
	const maxFlips = 50
	for flip := 0; flip < maxFlips; flip++ {
		cl := firstViolated(clauses, assignment)
		if cl == nil {
			return assignment, true
		}
		// Repair: pick a random expression of the violated clause and
		// resample one of its variables toward satisfaction, respecting
		// zero-probability values.
		e := cl[rng.Intn(len(cl))]
		target := e.X
		if e.Y >= 0 && rng.Intn(2) == 1 {
			target = e.Y
		}
		dist := s.dists[target]
		for tries := 0; tries < 4; tries++ {
			a := int32(sampleDist(rng, dist))
			if a != assignment[target] {
				assignment[target] = a
				break
			}
		}
	}
	if firstViolated(clauses, assignment) == nil {
		return assignment, true
	}
	return nil, false
}
