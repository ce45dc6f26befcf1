package prob

import (
	"encoding/binary"
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
	pPhi float64
	// comps[g] is the g-th connected clause group; probs[g] its
	// probability under the distributions at construction time.
	comps [][][]ctable.Expr
	probs []float64
	byVar map[ctable.Var]int
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

// NewCondScan decomposes the condition and computes each component's
// probability (through the component cache when the evaluator has one).
// pPhi is the caller's Pr(φ) for the condition — the same value handed to
// CondProbsWith — so utilities computed through the scan and through
// CondProbsWith see identical marginals.
func (ev *Evaluator) NewCondScan(c *ctable.Condition, pPhi float64) *CondScan {
	cs := &CondScan{ev: ev, pPhi: pPhi}
	if _, decided := c.Decided(); decided {
		return cs
	}
	cs.comps, cs.byVar = condComponents(c.Clauses)
	cs.probs = make([]float64, len(cs.comps))
	for g, comp := range cs.comps {
		cs.probs[g] = ev.probClauses(comp)
	}
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
	var touched [2]int
	nt := 0
	mark := func(v ctable.Var) {
		g, ok := cs.byVar[v]
		if !ok {
			return
		}
		for i := 0; i < nt; i++ {
			if touched[i] == g {
				return
			}
		}
		touched[nt] = g
		nt++
	}
	mark(e.X)
	if e.Kind == ctable.VarGTVar {
		mark(e.Y)
	}

	rest := 1.0
	for g, p := range cs.probs {
		hit := false
		for i := 0; i < nt; i++ {
			if touched[i] == g {
				hit = true
				break
			}
		}
		if !hit {
			rest *= p
		}
	}

	var pBoth float64
	switch {
	case nt == 0:
		// e shares no variable with φ: independent, Pr(φ∧e) = Pr(φ)·Pr(e).
		pBoth = pPhi * pe
	case e.Kind != ctable.VarGTVar && cs.sweeps[e.X] != nil:
		// Constant-comparison candidate on a swept variable: the planned
		// joint vector prices it with a partial sum,
		// Pr(comp∧e) = Σ_{a satisfying e} Pr(comp ∧ x=a).
		vec := cs.sweeps[e.X]
		sum := 0.0
		if e.Kind == ctable.VarLTConst {
			for a := 0; a < len(vec) && a < e.C; a++ {
				sum += vec[a]
			}
		} else {
			start := e.C + 1
			if start < 0 {
				start = 0
			}
			for a := start; a < len(vec); a++ {
				sum += vec[a]
			}
		}
		pBoth = rest * sum
	default:
		// Unswept candidate: re-solve the touched component(s) with the
		// unit clause [e] riding in solver scratch. Var-vs-var candidates
		// always land here (they couple two variables, possibly bridging
		// two components), as do constant comparisons on variables too
		// lightly loaded for PlanSweeps.
		var groups [2][][]ctable.Expr
		for i := 0; i < nt; i++ {
			groups[i] = cs.comps[touched[i]]
		}
		pBoth = rest * ev.probGroups(groups[:nt], &e)
	}

	if pe > 0 {
		pTrue = clampProb(pBoth / pe)
	} else {
		pTrue = pPhi
	}
	if pe < 1 {
		pFalse = clampProb((pPhi - pBoth) / (1 - pe))
	} else {
		pFalse = pPhi
	}
	return pe, pPhi, pTrue, pFalse
}

// PlanSweeps inspects the candidate set the scan is about to price and
// materialises joint marginal vectors Pr(comp ∧ x=a) for the variables
// carrying constant-comparison candidates. Vectors the evaluator planned
// in an earlier scan or round are picked up for free; the rest are
// served from the cache or computed — when the component's candidate
// load clears marginalsThreshold — by one
// all-variable marginal pass per component (stAllMarginals), which costs a
// small constant factor over a single solve however many variables it
// reports. Call it once, before probing — wholesale scorers like the UBS
// utility fan-out do — and the per-candidate cost on a swept variable
// drops from a model-counting run to a partial sum. Skipping the call is
// always correct: CondProbs falls back to unit-clause re-solves, the
// right profile for lazy early-stopping scorers that may probe only a
// couple of candidates.
func (cs *CondScan) PlanSweeps(exprs []ctable.Expr) {
	if len(cs.comps) == 0 {
		return
	}
	counts := make([]int, len(cs.comps))
	//lint:ignore hotalloc once per sweep plan (per selection pass), not per candidate probe
	needed := make(map[ctable.Var]bool, len(exprs))
	for _, e := range exprs {
		if e.Kind == ctable.VarGTVar {
			continue
		}
		if g, ok := cs.byVar[e.X]; ok {
			counts[g]++
			needed[e.X] = true
		}
	}
	// The candidate and sweep-variable counts are pure functions of the
	// candidate set; what the cache serves versus recomputes below is not,
	// and stays out of the trace.
	cs.ev.Obs.Emit(obs.Event{Kind: obs.KindSweepPlan, N: len(exprs), M: len(needed)})
	for g, n := range counts {
		if n > 0 {
			cs.planComp(g, needed, n)
		}
	}
}

// planComp serves or computes the marginal vectors of one component's
// needed variables: vectors this evaluator planned first, then — if any
// are missing and the candidate count justifies it — cache lookups, then
// a single stAllMarginals pass whose vectors are stored for later scans
// and rounds. Vectors are computed on the canonically-ordered component,
// so served and freshly-computed values are bit-identical.
//
// Which vectors may serve below marginalsThreshold decides between the
// partial-sum and the re-solve path, which agree only within 1e-12. The
// cache may hold vectors other evaluators planned, so only the vectors
// in the evaluator's own planned set serve below the gate, and the cache
// only replaces a computation past it. The planned set keeps its
// vectors, so eviction from the cache cannot change the path either.
func (cs *CondScan) planComp(g int, needed map[ctable.Var]bool, nCand int) {
	ev := cs.ev
	s, interned := newSolverGroups(ev, [][][]ctable.Expr{cs.comps[g]}, nil)
	defer s.release()
	defer ev.drain(s)
	key, _ := s.fingerprint(interned, sweepKeyPrefix)
	base := len(key)
	varKey := func(x ctable.Var) []byte {
		key = key[:base]
		key = binary.AppendUvarint(key, uint64(uint32(x.Obj)))
		key = binary.AppendUvarint(key, uint64(uint32(x.Attr)))
		s.keyBuf = key
		return key
	}

	var miss []ctable.Var
	for x := range needed {
		if cs.byVar[x] != g {
			continue
		}
		if vec, ok := ev.plannedVec(varKey(x)); ok {
			cs.addSweep(x, vec)
			continue
		}
		//lint:ignore determinism miss feeds a need-set and per-variable map stores; vectors are computed on the canonical component order, so gather order cannot reach a result
		miss = append(miss, x)
	}
	if len(miss) == 0 || nCand < marginalsThreshold {
		return
	}

	cache := ev.activeCache()
	var vars []ctable.Var
	if cache != nil {
		kept := miss[:0]
		for _, x := range miss {
			if e, ok := s.lookup(cache, varKey(x)); ok {
				cs.addSweep(x, e.vec)
				ev.plan(varKey(x), e)
				continue
			}
			kept = append(kept, x)
		}
		if miss = kept; len(miss) == 0 {
			return
		}
		vars = slices.Clone(s.componentVars(interned))
	}

	for _, x := range miss {
		s.margNeed[s.varID(ev, x)] = true
	}
	total, m := s.marginals(interned)
	for _, x := range miss {
		vec := m[s.varID(ev, x)]
		if vec == nil {
			// The component collapsed before constraining x (or has zero
			// probability): the joint is the independent product.
			d := ev.state(x).Dist
			vec = make([]float64, len(d))
			if total != 0 {
				for b, pb := range d {
					vec[b] = total * pb
				}
			}
		}
		cs.addSweep(x, vec)
		if cache != nil {
			e := cacheEntry{vec: vec, vars: vars}
			s.store(cache, varKey(x), e)
			ev.plan(varKey(x), e)
		}
	}
}

// addSweep records a planned vector. The slices may be cache-shared:
// read-only from here on.
func (cs *CondScan) addSweep(x ctable.Var, vec []float64) {
	if cs.sweeps == nil {
		//lint:ignore hotalloc once per scan construction; probes only read it
		cs.sweeps = make(map[ctable.Var][]float64)
	}
	cs.sweeps[x] = vec
}

// condComponents groups a condition's clauses into connected components
// of the clause-variable incidence graph and returns, alongside the
// groups, the variable-to-group index the scan routes candidates through.
func condComponents(clauses [][]ctable.Expr) ([][][]ctable.Expr, map[ctable.Var]int) {
	parent := make([]int, len(clauses))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	owner := make(map[ctable.Var]int, len(clauses))
	claim := func(v ctable.Var, clause int) {
		if prev, ok := owner[v]; ok {
			ra, rb := find(prev), find(clause)
			if ra != rb {
				parent[ra] = rb
			}
			return
		}
		owner[v] = clause
	}
	for i, cl := range clauses {
		for _, e := range cl {
			claim(e.X, i)
			if e.Kind == ctable.VarGTVar {
				claim(e.Y, i)
			}
		}
	}

	groupOf := make([]int, len(clauses))
	nGroups := 0
	for i := range clauses {
		if find(i) == i {
			groupOf[i] = nGroups
			nGroups++
		}
	}
	comps := make([][][]ctable.Expr, nGroups)
	for i, cl := range clauses {
		g := groupOf[find(i)]
		comps[g] = append(comps[g], cl)
	}
	byVar := make(map[ctable.Var]int, len(owner))
	for v, cl := range owner {
		byVar[v] = groupOf[find(cl)]
	}
	return comps, byVar
}
