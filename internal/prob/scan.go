package prob

import (
	"slices"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
)

// CondScan precomputes a condition's connected-component decomposition so
// the UBS/HHS inner loop — probing the same condition with many candidate
// expressions — pays for one component, not the whole formula, per probe.
//
// A candidate expression e drawn from the condition touches exactly the
// component(s) holding its variables. Pr(φ∧e) therefore factors as
//
//	Pr(φ∧e) = Pr(touched ∧ e) · Π Pr(untouched component)
//
// where the untouched factors were computed once at scan construction (and
// usually served from the evaluator's component cache). Only the touched
// component is re-solved per candidate — with the unit clause [e] riding
// in solver scratch — so a condition of k components costs one small
// model-counting run plus a k-term product per candidate, instead of a
// full run over all k components. The rest-product multiplies the
// untouched factors directly rather than dividing the full product by the
// touched one, so zero-probability components need no special casing.
//
// A scan snapshots the evaluator's distributions at construction time:
// build it after crowd answers are absorbed, use it for one selection
// pass, and drop it.
type CondScan struct {
	ev   *Evaluator
	cond *ctable.Condition
	pPhi float64
	// probs[g] is component g's probability under the distributions at
	// construction time.
	probs []float64
	// sweeps holds the joint vectors Pr(comp ∧ x=a) materialised by
	// PlanSweeps for the variables carrying constant-comparison
	// candidates. Written only by PlanSweeps (before any concurrent
	// probing), read-only afterwards, so the scan stays safe to share
	// across workers.
	sweeps map[ctable.Var][]float64
}

// marginalsThreshold is the minimum number of constant-comparison
// candidates on one component for PlanSweeps to run a fresh all-variable
// marginal pass over it. The pass costs a small constant factor over one
// solve of the component and then prices every one of those candidates
// with a partial sum, while the fallback pays one unit-clause solve per
// candidate — so the pass breaks even at a handful of candidates.
// Already-cached vectors are picked up regardless of the count.
const marginalsThreshold = 3

// NewCondScan reads the condition's stored components and computes each
// one's probability (through the component cache when the evaluator has
// one). pPhi is the caller's Pr(φ) for the condition — the same value
// handed to CondProbsWith — so utilities computed through the scan and
// through CondProbsWith see identical marginals.
func (ev *Evaluator) NewCondScan(c *ctable.Condition, pPhi float64) *CondScan {
	cs := &CondScan{ev: ev, cond: c, pPhi: pPhi}
	if _, decided := c.Decided(); decided {
		return cs
	}
	cs.probs = make([]float64, c.NumComponents())
	s := ev.solverFor(c, 0)
	for g := range cs.probs {
		cs.probs[g] = s.compProb(g, ev.activeCache())
	}
	ev.drain(s)
	s.release()
	return cs
}

// CondProbs is Evaluator.CondProbsWith through the scan: the same four
// marginal-utility quantities, with Pr(φ∧e) assembled from the touched
// component's re-solve and the cached rest-product.
func (cs *CondScan) CondProbs(e ctable.Expr) (pe, pPhi, pTrue, pFalse float64) {
	ev := cs.ev
	pe = ev.ExprProb(e)
	pPhi = cs.pPhi

	// A candidate touches at most two components (one per variable; both
	// variables of an in-condition expression share a clause, hence a
	// component, but expressions from other conditions may bridge two).
	var buf [2]int
	touched := buf[:0]
	if x, ok := cs.cond.VarIndex(e.X); ok {
		touched = append(touched, cs.cond.VarComponent(x))
	}
	if e.Kind == ctable.VarGTVar {
		if y, ok := cs.cond.VarIndex(e.Y); ok && !slices.Contains(touched, cs.cond.VarComponent(y)) {
			touched = append(touched, cs.cond.VarComponent(y))
		}
	}

	rest := 1.0
	for g, p := range cs.probs {
		if !slices.Contains(touched, g) {
			rest *= p
		}
	}

	var pBoth float64
	switch {
	case len(touched) == 0:
		// e shares no variable with φ: independent, Pr(φ∧e) = Pr(φ)·Pr(e).
		pBoth = pPhi * pe
	case e.Kind != ctable.VarGTVar && cs.sweeps[e.X] != nil:
		// Constant-comparison candidate on a swept variable: the planned
		// joint vector prices it with a partial sum,
		// Pr(comp∧e) = Σ_{a satisfying e} Pr(comp ∧ x=a), which is the
		// literal's probability rule run over the vector.
		pBoth = rest * litProb(e.Kind, cs.sweeps[e.X], nil, e.C)
	default:
		// Unswept candidate: re-solve the touched component(s) with the
		// unit clause [e] merged in. Var-vs-var candidates always land
		// here (they couple two variables, possibly bridging two
		// components), as do constant comparisons on variables too
		// lightly loaded for PlanSweeps.
		s := ev.solverFor(cs.cond, 2)
		pBoth = rest * s.probe(touched, s.unitLit(e), ev.activeCache())
		ev.drain(s)
		s.release()
	}
	pTrue, pFalse = condTail(pe, pPhi, pBoth)
	return pe, pPhi, pTrue, pFalse
}

// PlanSweeps inspects the candidate set the scan is about to price and
// materialises joint marginal vectors Pr(comp ∧ x=a) for the variables
// carrying constant-comparison candidates. Vectors the evaluator planned
// in an earlier scan or round are picked up for free; the rest are
// served from the cache or computed — when the component's candidate
// load clears marginalsThreshold — by one
// all-variable marginal pass per component (marginals), which costs a
// small constant factor over a single solve however many variables it
// reports. Call it once, before probing — wholesale scorers like the UBS
// utility fan-out do — and the per-candidate cost on a swept variable
// drops from a model-counting run to a partial sum. Skipping the call is
// always correct: CondProbs falls back to unit-clause re-solves, the
// right profile for lazy early-stopping scorers that may probe only a
// couple of candidates.
func (cs *CondScan) PlanSweeps(exprs []ctable.Expr) {
	if len(cs.probs) == 0 {
		return
	}
	counts := make([]int, len(cs.probs))
	needed := make([]bool, len(cs.cond.Table()))
	nNeeded := 0
	for _, e := range exprs {
		if e.Kind == ctable.VarGTVar {
			continue
		}
		if x, ok := cs.cond.VarIndex(e.X); ok {
			counts[cs.cond.VarComponent(x)]++
			if !needed[x] {
				needed[x] = true
				nNeeded++
			}
		}
	}
	// The candidate and sweep-variable counts are pure functions of the
	// candidate set; what the cache serves versus recomputes below is not,
	// and stays out of the trace.
	cs.ev.Obs.Emit(obs.Event{Kind: obs.KindSweepPlan, N: len(exprs), M: nNeeded})
	for g, n := range counts {
		if n > 0 {
			cs.planComp(g, needed, n)
		}
	}
}

// planComp serves or computes the marginal vectors of one component's
// needed variables: vectors this evaluator planned first, then — if any
// are missing and the candidate count justifies it — cache lookups, then
// a single marginals pass whose vectors are stored for later scans
// and rounds. Vectors are computed on the canonically-ordered component,
// so served and freshly-computed values are bit-identical.
//
// Which vectors may serve below marginalsThreshold decides between the
// partial-sum and the re-solve path, which agree only within 1e-12. The
// cache may hold vectors other evaluators planned, so only the vectors
// in the evaluator's own planned set serve below the gate, and the cache
// only replaces a computation past it. The planned set keeps its
// vectors, so eviction from the cache cannot change the path either.
func (cs *CondScan) planComp(g int, needed []bool, nCand int) {
	ev := cs.ev
	s := ev.solverFor(cs.cond, 0)
	defer s.release()
	defer ev.drain(s)
	comp := cs.cond.Component(g)
	clauses := s.canonClauses(g)
	vars := s.firstVars(clauses)
	h := s.narrowedHash(comp.Hash, vars)
	base := s.shape(clauses, vars)
	// sweepKey returns the key and shape (scratch) of x's sweep vector.
	sweepKey := func(x int) (uint64, []byte) {
		pos := int(s.pos[x])
		return entryKey(h, domainSweep, pos), entryShape(base, domainSweep, pos)
	}

	var miss []int
	for x, need := range needed {
		if !need || cs.cond.VarComponent(x) != g {
			continue
		}
		key, shape := sweepKey(x)
		if vec, ok := ev.plannedVec(key, shape); ok {
			cs.addSweep(x, vec)
			continue
		}
		miss = append(miss, x)
	}
	if len(miss) == 0 || nCand < marginalsThreshold {
		return
	}

	cache := ev.activeCache()
	if cache != nil {
		kept := miss[:0]
		for _, x := range miss {
			key, shape := sweepKey(x)
			if _, vec, ok := s.lookup(cache, key, shape); ok {
				cs.addSweep(x, vec)
				ev.plan(key, string(shape), vec)
				continue
			}
			kept = append(kept, x)
		}
		if miss = kept; len(miss) == 0 {
			return
		}
	}

	for _, x := range miss {
		s.margNeed[x] = true
	}
	total, m := s.marginals(clauses)
	for _, x := range miss {
		vec := m[int32(x)]
		if vec == nil {
			// The component collapsed before constraining x (or has zero
			// probability): the joint is the independent product.
			d := s.dists[x]
			vec = make([]float64, len(d))
			if total != 0 {
				for b, pb := range d {
					vec[b] = total * pb
				}
			}
		}
		cs.addSweep(x, vec)
		if cache != nil {
			key, shape := sweepKey(x)
			sh := string(shape)
			s.store(cache, key, &cacheEntry{shape: sh, vec: vec})
			ev.plan(key, sh, vec)
		}
	}
}

// addSweep records a planned vector for table variable x. The slices
// may be cache-shared: read-only from here on.
func (cs *CondScan) addSweep(x int, vec []float64) {
	if cs.sweeps == nil {
		//lint:ignore hotalloc once per scan construction; probes only read it
		cs.sweeps = make(map[ctable.Var][]float64)
	}
	cs.sweeps[cs.cond.Table()[x]] = vec
}
