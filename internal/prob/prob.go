// Package prob computes the satisfaction probability Pr(φ(o)) of c-table
// conditions — the possibility of an object being a skyline answer (paper
// §5).
//
// The problem is weighted model counting over multi-valued variables, at
// least as hard as #SAT. Four solvers are provided:
//
//   - ADPLL (Algorithm 3): the paper's adaptive DPLL — branch on the most
//     frequent variable, and stop branching as soon as the residual
//     conjuncts are independent, where the probability follows directly
//     from the independent-conjunction rule Pr(p∧q) = Pr(p)·Pr(q) and the
//     general-disjunction rule Pr(p∨q) = 1 − Pr(¬p∧¬q). This
//     implementation generalises the independence test to connected
//     components of clauses (clauses sharing no variable are independent
//     groups), a standard #SAT device; an option disables it for the
//     ablation benchmark.
//
//   - Naive: full enumeration of every variable-value combination, the
//     brute-force comparator of Figure 3.
//
//   - ApproxCount: the paper's approximate comparator, Wei & Selman's
//     weighted ApproxCount generalised to multi-valued variables, which
//     §5 reports losing to ADPLL on both axes.
//
//   - MonteCarlo: plain sampling from the variable distributions. The
//     same sampler estimates the components Options.ApproxThreshold takes
//     off the exact path.
//
// Variables carry independent discrete distributions (their Bayesian-
// network posteriors, possibly narrowed by crowd answers); following
// the paper, the ADPLL recursion multiplies the branch weights p(v_a)
// independently.
package prob

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
)

// Dists maps every variable appearing in the conditions under evaluation
// to its base probability distribution over the attribute's codes, a
// normalised slice (Evaluator.Narrow renormalises it as crowd answers
// narrow the variable's interval).
type Dists map[ctable.Var][]float64

// Options tunes the ADPLL solver; the zero value is the recommended
// configuration.
type Options struct {
	// NoComponents disables connected-component decomposition, leaving
	// only the paper's literal "all conjuncts pairwise independent" test.
	// Used by the ablation benchmark.
	NoComponents bool
	// BranchFirstVar branches on the first variable encountered instead
	// of the most frequent one. Used by the ablation benchmark.
	BranchFirstVar bool
	// ApproxThreshold, when > 0, caps the exact solver: a connected
	// component with more than ApproxThreshold distinct variables is
	// estimated by Monte Carlo sampling (2000 draws) instead of being
	// counted exactly. The sampler is seeded from the component's
	// structural hash, so both the fallback decision and the
	// estimate are pure functions of the component — identical at any
	// worker count, schedule, and cache state. See
	// Evaluator.ApproxComponents for the error bound. Zero (the default)
	// means always exact. The threshold is per component, so it has no
	// effect under NoComponents.
	ApproxThreshold int
}

// Interval is an inclusive range [Lo, Hi] of attribute codes: the values
// crowd answers still allow a variable.
type Interval struct{ Lo, Hi int }

// VarState is what an evaluator knows of one numbered variable
// (Evaluator.Vars): its base distribution, its effective one and, once
// crowd answers narrowed it (Evaluator.Narrow), the interval it was
// narrowed to.
type VarState struct {
	Base, Dist []float64
	// Narrowed reports that Dist is Base renormalised to Interval; false
	// means Dist is Base.
	Narrowed bool
	Interval Interval
}

// Evaluator computes condition probabilities against a fixed set of
// variable distributions.
//
// Concurrency: the evaluator is safe for concurrent use by multiple
// goroutines provided none of them mutates IDs or Vars (or the
// distribution slices they hold) while evaluations are in flight —
// evaluation only reads them, and solver scratch is per-call (pooled,
// never shared between in-flight evaluations). The framework is
// single-writer: crowd answers narrow distributions (Narrow) strictly
// between parallel fan-outs, and the pool join inside ProbAll /
// parallel.For publishes those writes to the workers of the next fan-out
// (a happens-before edge). Callers adding their own concurrency must
// preserve that discipline. The component cache follows the same
// contract: lookups and stores are safe during fan-outs, Drop belongs in
// the single-writer gaps.
type Evaluator struct {
	// Dists holds the distributions of an evaluator whose caller numbers
	// nothing (IDs nil). The evaluator numbers them on first use, each at
	// its base distribution, and never reads Dists again.
	Dists Dists
	// IDs numbers the variables, and Vars[id] is each one's state; an
	// evaluation resolves each variable of a condition's table through
	// them once. Component keys carry each variable's narrowing, so
	// evaluators over the same base distributions and Options may share
	// one Cache.
	IDs  *ctable.VarIDs
	Vars []VarState
	Opt  Options
	// Cache, when non-nil, memoizes connected-component probabilities
	// across evaluations (see ComponentCache); nil is the cache ablation.
	// Cached and uncached evaluation are bit-identical — both solve
	// branched components in the same canonical order; the cache only
	// decides whether a component's probability is looked up or
	// recomputed.
	Cache *ComponentCache
	// Obs, when non-nil, receives the evaluator's trace events (fan-out
	// and sweep-plan sizes). It is set by the single writer that owns the
	// evaluator, and events are emitted only from sequential entry points
	// (ProbAll's dispatch, CondScan.PlanSweeps) — never from inside a
	// fan-out — so the trace stays deterministic at any worker count.
	Obs *obs.Recorder
	// numbered numbers Dists once, on first use (number).
	numbered sync.Once
	// approxN counts connected components resolved by the ApproxThreshold
	// fallback; hits, misses and evicted count this evaluator's cache
	// traffic. Atomic because evaluations run inside parallel fan-outs.
	approxN               atomic.Int64
	hits, misses, evicted atomic.Uint64
	// planned holds the sweep vectors this evaluator's scans planned on
	// its cache, by key, with their component's variables: only these
	// may price a candidate below marginalsThreshold (CondScan.planComp).
	planned   entryChains // guarded by plannedMu
	plannedMu sync.Mutex
}

// CacheStats reports this evaluator's component-cache traffic — its
// hits, misses and the evictions its stores caused — and the entries
// the cache's Drop removed. Zero without a cache.
func (ev *Evaluator) CacheStats() CacheStats {
	if ev.Cache == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:               ev.hits.Load(),
		Misses:             ev.misses.Load(),
		Evicted:            ev.evicted.Load(),
		InvalidatedEntries: ev.Cache.dropped,
	}
}

// plannedVec returns the sweep vector this evaluator planned under key
// and shape.
func (ev *Evaluator) plannedVec(key uint64, shape []byte) ([]float64, bool) {
	ev.plannedMu.Lock()
	defer ev.plannedMu.Unlock()
	if e := ev.planned.find(key, shape); e != nil {
		return e.vec, true
	}
	return nil, false
}

// plan records a sweep vector this evaluator planned under key and
// shape. vec is retained and must not be mutated afterwards.
func (ev *Evaluator) plan(key uint64, shape string, vec []float64) {
	ev.plannedMu.Lock()
	defer ev.plannedMu.Unlock()
	if ev.planned == nil {
		//lint:ignore hotalloc once per evaluator: the set lives as long as the evaluator and Drop prunes it
		ev.planned = entryChains{}
	}
	if ev.planned.find(key, []byte(shape)) == nil {
		ev.planned.insert(&cacheEntry{key: key, shape: shape, vec: vec})
	}
}

// Drop removes from the cache and from the planned sweep set every entry
// that mentions a variable dead reports, and returns how many cache
// entries it removed (ComponentCache.Drop). The streaming engine calls
// it with the variables a tick retired — "object not live" — or
// renormalised, whose entries can never be hit again; each call scans
// every entry, so a caller with nothing to drop skips it. Like every
// distribution write it belongs in a single-writer gap.
func (ev *Evaluator) Drop(dead func(ctable.Var) bool) int {
	if ev.Cache == nil {
		return 0
	}
	ev.plannedMu.Lock()
	ev.planned.drop(dead)
	ev.plannedMu.Unlock()
	return ev.Cache.Drop(dead)
}

// ApproxComponents returns how many connected-component solves fell back
// to the approximate estimator (Options.ApproxThreshold) since the
// evaluator was created. The probability values themselves are
// deterministic (seeded from the structural hash); the invocation count is not when a
// component cache is shared across workers or evaluators — like cache
// hit statistics, it depends on which worker reaches a component first,
// and on what other evaluators left in the cache (a served estimate is
// not counted) — so treat it as an observability figure, not a traced
// quantity.
//
// Error bound: each estimated component is the mean of 2000 independent
// draws, so by Hoeffding's inequality it misses the component's exact
// probability by 0.05 or more with probability at most 2·e^−10 ≈ 1e-4
// (the approx fallback tests assert the 0.05 bound on seeded chains and
// an NBA-shaped workload). A condition's errors compound across its
// estimated components; treat crossings of the 0.5 answer threshold by
// less than 0.05 as undecided when ApproxThreshold is enabled.
func (ev *Evaluator) ApproxComponents() int64 { return ev.approxN.Load() }

// NewEvaluator returns an evaluator over the given distributions with
// default options.
func NewEvaluator(dists Dists) *Evaluator { return &Evaluator{Dists: dists} }

// number numbers Dists when the caller numbered nothing. Every read of
// IDs or Vars goes through it first.
func (ev *Evaluator) number() {
	ev.numbered.Do(func() {
		if ev.IDs != nil {
			return
		}
		// Sorting the packed keys puts the variables in (Obj, Attr) order,
		// so the i-th one gets id i.
		keys := make([]uint64, 0, len(ev.Dists))
		for v := range ev.Dists {
			if v.Obj >= 0 && v.Attr >= 0 {
				keys = append(keys, uint64(v.Obj)<<32|uint64(v.Attr))
			}
		}
		slices.Sort(keys)
		vars := make([]ctable.Var, len(keys))
		ev.Vars = make([]VarState, len(keys))
		for i, k := range keys {
			vars[i] = ctable.Var{Obj: int(k >> 32), Attr: int(uint32(k))}
			ev.Vars[i] = VarState{Base: ev.Dists[vars[i]], Dist: ev.Dists[vars[i]]}
		}
		ev.IDs = ctable.NewVarIDs(vars)
	})
}

// state returns the state of the variable v, panicking when the
// evaluator has no distribution for it.
func (ev *Evaluator) state(v ctable.Var) *VarState {
	ev.number()
	if id, ok := ev.IDs.ID(v); ok && ev.Vars[id].Dist != nil {
		return &ev.Vars[id]
	}
	panic(fmt.Sprintf("prob: no distribution for %v", v))
}

// Narrow renormalises v's base distribution over iv, the values crowd
// answers still allow it, and records the narrowing, which the
// component keys carry. Like every distribution write it belongs in a
// single-writer gap.
func (ev *Evaluator) Narrow(v ctable.Var, iv Interval) {
	st := ev.state(v)
	st.Dist, st.Narrowed, st.Interval = narrow(st.Base, iv), true, iv
}

// narrow renormalises base over iv; values outside it carry probability
// zero. A base with no mass in iv gives the uniform distribution over
// it, so the framework can proceed.
func narrow(base []float64, iv Interval) []float64 {
	out := make([]float64, len(base))
	sum := 0.0
	for v := iv.Lo; v <= iv.Hi && v < len(base); v++ {
		sum += base[v]
	}
	if sum <= 0 {
		width := iv.Hi - iv.Lo + 1
		for v := iv.Lo; v <= iv.Hi && v < len(base); v++ {
			out[v] = 1 / float64(width)
		}
		return out
	}
	for v := iv.Lo; v <= iv.Hi && v < len(base); v++ {
		out[v] = base[v] / sum
	}
	return out
}

// ExprProb returns Pr(e) under the variable distributions: the mass of
// values satisfying the inequality (independent variables for the
// var-vs-var case). The degenerate x > x never holds: its probability
// is 0, not that of two independent copies of x.
func (ev *Evaluator) ExprProb(e ctable.Expr) float64 {
	if e.Kind != ctable.VarLTConst && e.Kind != ctable.VarGTConst && e.Kind != ctable.VarGTVar {
		panic(fmt.Sprintf("prob: unknown expression kind %d", e.Kind))
	}
	dx := ev.state(e.X).Dist
	var dy []float64
	if e.Kind == ctable.VarGTVar {
		if e.Y == e.X {
			return 0
		}
		dy = ev.state(e.Y).Dist
	}
	return litProb(e.Kind, dx, dy, e.C)
}

// Prob returns Pr(φ) via the ADPLL algorithm. Decided conditions return 0
// or 1 directly.
func (ev *Evaluator) Prob(c *ctable.Condition) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	s := ev.solverFor(c, 0)
	p := s.prob(ev.activeCache())
	ev.drain(s)
	s.release()
	return p
}

// drain moves the solver's approximate-fallback and cache counts onto
// the evaluator's atomic counters before the solver returns to the pool.
func (ev *Evaluator) drain(s *solver) {
	if s.nApprox > 0 {
		ev.approxN.Add(int64(s.nApprox))
		s.nApprox = 0
	}
	if s.hits > 0 {
		ev.hits.Add(s.hits)
		s.hits = 0
	}
	if s.misses > 0 {
		ev.misses.Add(s.misses)
		s.misses = 0
	}
	if s.evicted > 0 {
		ev.evicted.Add(s.evicted)
		s.evicted = 0
	}
}

// activeCache returns the cache an evaluation should consult: nil when there
// is none or when caching is structurally meaningless
// (Options.NoComponents — without component decomposition there is
// nothing to memoize).
func (ev *Evaluator) activeCache() *ComponentCache {
	if ev.Opt.NoComponents {
		return nil
	}
	return ev.Cache
}

// ProbAll computes Pr(φ) for every condition, fanning the independent
// evaluations across at most workers goroutines (<= 0 means one per CPU,
// 1 runs inline sequentially). out[i] corresponds to conds[i], so the
// merge order — and therefore every returned float — is bit-identical at
// any worker count: each condition is evaluated wholly by one worker and
// no sum is reassociated across workers.
func (ev *Evaluator) ProbAll(conds []*ctable.Condition, workers int) []float64 {
	// Emitted from the sequential dispatch, before the fan-out — the size
	// of the fan-out is deterministic even though its schedule is not.
	ev.Obs.Emit(obs.Event{Kind: obs.KindProbFanout, N: len(conds)})
	out := make([]float64, len(conds))
	parallel.For(parallel.Workers(workers), len(conds), func(_, i int) {
		out[i] = ev.Prob(conds[i])
	})
	return out
}

// Naive returns Pr(φ) by enumerating every combination of the condition's
// variables — the brute-force comparator of Figure 3, with complexity
// N^|vars|. Use StateSpace to bound the cost before calling.
func (ev *Evaluator) Naive(c *ctable.Condition) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	vars := c.Vars()
	assign := map[ctable.Var]int{}
	var rec func(i int, weight float64) float64
	rec = func(i int, weight float64) float64 {
		if i == len(vars) {
			value, decided := c.EvalAssign(assign)
			if !decided {
				panic("prob: condition undecided under full assignment")
			}
			if value {
				return weight
			}
			return 0
		}
		v := vars[i]
		total := 0.0
		for a, pa := range ev.state(v).Dist {
			if pa == 0 {
				continue
			}
			assign[v] = a
			total += rec(i+1, weight*pa)
		}
		delete(assign, v)
		return total
	}
	return rec(0, 1)
}

// StateSpace returns the number of variable-value combinations Naive would
// enumerate for the condition (product of domain sizes), as a float64 to
// avoid overflow.
func (ev *Evaluator) StateSpace(c *ctable.Condition) float64 {
	if _, decided := c.Decided(); decided {
		return 0
	}
	space := 1.0
	for _, v := range c.Vars() {
		space *= float64(len(ev.state(v).Dist))
	}
	return space
}

// MonteCarlo estimates Pr(φ) by sampling each variable from its
// distribution, in order of first appearance, and reporting the fraction
// of satisfied draws. It runs the same solver-level sampler as the
// ApproxThreshold fallback, over the condition's clauses in build order.
func (ev *Evaluator) MonteCarlo(c *ctable.Condition, samples int, rng *rand.Rand) float64 {
	if value, decided := c.Decided(); decided {
		if value {
			return 1
		}
		return 0
	}
	if samples <= 0 {
		panic(fmt.Sprintf("prob: MonteCarlo with %d samples", samples))
	}
	s := ev.solverFor(c, 0)
	clauses := s.buildClauses(nil, nil)
	p := s.monteCarlo(clauses, s.firstVars(clauses), samples, rng)
	s.release()
	return p
}

func sampleDist(rng *rand.Rand, dist []float64) int {
	u := rng.Float64()
	acc := 0.0
	for v, p := range dist {
		acc += p
		if u < acc {
			return v
		}
	}
	return len(dist) - 1
}

// CondProbs returns the quantities the marginal-utility function (Eq. 4-5)
// needs for expression e of condition c:
//
//	pe      = Pr(e)
//	pPhi    = Pr(φ)
//	pTrue   = Pr(φ | e true)
//	pFalse  = Pr(φ | e false)
//
// computed exactly via Pr(φ∧e) with one extra ADPLL run over the condition
// augmented by the unit clause [e] (negation-free conditioning:
// Pr(φ|¬e) = (Pr(φ) − Pr(φ∧e)) / (1 − Pr(e))). Degenerate conditionals
// (Pr(e) ∈ {0,1}) return pPhi for the impossible branch.
func (ev *Evaluator) CondProbs(c *ctable.Condition, e ctable.Expr) (pe, pPhi, pTrue, pFalse float64) {
	return ev.CondProbsWith(c, e, ev.Prob(c))
}

// CondProbsWith is CondProbs with Pr(φ) supplied by the caller, saving one
// model-counting run when the same condition is probed for many
// expressions (the UBS/HHS inner loop).
func (ev *Evaluator) CondProbsWith(c *ctable.Condition, e ctable.Expr, pPhiKnown float64) (pe, pPhi, pTrue, pFalse float64) {
	pe = ev.ExprProb(e)
	pPhi = pPhiKnown

	// The unit clause rides in solver scratch, so no augmented clause
	// buffer is allocated per probe.
	s := ev.solverFor(c, 2)
	pBoth := s.probWith(s.unitLit(e), ev.activeCache())
	ev.drain(s)
	s.release()
	pTrue, pFalse = condTail(pe, pPhi, pBoth)
	return pe, pPhi, pTrue, pFalse
}

// condTail returns Pr(φ|e) = Pr(φ∧e)/Pr(e) and Pr(φ|¬e) = (Pr(φ) −
// Pr(φ∧e))/(1 − Pr(e)) from pe = Pr(e), pPhi = Pr(φ) and pBoth =
// Pr(φ∧e), clamped to [0, 1]; a conditional on an impossible branch is
// pPhi.
func condTail(pe, pPhi, pBoth float64) (pTrue, pFalse float64) {
	pTrue, pFalse = pPhi, pPhi
	if pe > 0 {
		pTrue = clampProb(pBoth / pe)
	}
	if pe < 1 {
		pFalse = clampProb((pPhi - pBoth) / (1 - pe))
	}
	return pTrue, pFalse
}

func clampProb(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
