package prob

import (
	"fmt"
	"slices"
	"sync"

	"bayescrowd/internal/ctable"
)

// The solver is the allocation-lean engine behind ADPLL. Public entry
// points convert a condition's expressions into a dense form first —
// variables interned to small integer ids, clauses to slices of cexpr —
// so everything downstream works on array indexing instead of map
// hashing. This file holds the interning, the literal evaluators
// (exprProb, litHolds), and the top level: the direct rule, the split
// into connected components, and their cache and approximate-fallback
// dispatch. Branching itself runs on the compiled clause-state engine in
// state.go; the sampling estimators are in approxcount.go.

// cexpr is an interned expression. y < 0 marks a constant right operand.
type cexpr struct {
	kind ctable.Kind
	x, y int32
	c    int32
}

type solver struct {
	opt Options
	// Variable interning assigns per-evaluation var ids in order of first
	// sight, through idEp/idLocal, indexed by the evaluator's id
	// (Evaluator.IDs). The slots are epoch-stamped, so "clearing" them
	// between evaluations is one increment of internEpoch.
	idEp        []uint64
	idLocal     []int32
	internEpoch uint64
	dists       [][]float64  // per var id
	vars        []ctable.Var // per var id: the real variable, for fingerprints
	// gids holds each var id's evaluator id, which the canonical sort
	// compares (fingerprint).
	gids []int32
	// narrow and narrowed hold each var id's narrowing, for fingerprint.
	narrow   []Interval
	narrowed []bool
	// assign[v] is the branched value of var v, or -1.
	assign []int32
	// Scratch epochs avoid clearing per-var arrays on every recursion.
	epoch   int
	seenEp  []int // directProb / stPickVar / firstVars bookkeeping
	counts  []int
	ownerEp []int // components bookkeeping
	owner   []int
	// Union-find, group and output scratch of components.
	compParent  []int
	compGroup   []int
	compSize    []int
	compClauses [][]cexpr
	compOut     [][][]cexpr
	// ceArena and clArena back the interned clause set of one evaluation:
	// all literals live in one flat buffer and the clause headers in one
	// reused slice, so a Pr(φ∧e) probe interns its condition — augmenting
	// unit clause included — with zero per-clause allocations, and the
	// UBS/HHS inner loop never materialises an augmented clause buffer.
	// Carved slices are solver-owned
	// per-evaluation scratch, which is what lets fingerprint sort them
	// in place.
	ceArena []cexpr
	clArena [][]cexpr
	// keyBuf and varsBuf are fingerprint scratch, reused across the
	// components of one evaluation.
	keyBuf  []byte
	varsBuf []ctable.Var
	// margNeed marks the variables the all-marginals pass must report
	// vectors for (set by the scan planner, false everywhere otherwise).
	margNeed []bool
	// satVars is firstVars' output, the samplers' variable draw order.
	// The rest is sampler scratch (approxcount.go): the dense working
	// assignment, ApproxCount's per-level live literals in effective form
	// (satLits, carved per clause into satClauses) and its per-value
	// sample counts.
	satVars    []int32
	satAssign  []int32
	satLits    []cexpr
	satClauses [][]cexpr
	satCounts  []float64
	// nApprox counts the connected components this evaluation resolved
	// through the approximate estimator (Options.ApproxThreshold), and
	// hits, misses and evicted its cache traffic; the public entry points
	// drain them into the evaluator's counters.
	nApprox               int
	hits, misses, evicted uint64

	// Bitset clause-state engine scratch (state.go). componentProb
	// compiles the component into a flat literal arena once; the recursion
	// below it then touches only bit-words, counters and the undo trail —
	// no per-node clause rewriting, no per-node allocation.
	stExprs     []cexpr  // literal arena, clause-contiguous
	stClauseOff []int32  // clause c = stExprs[stClauseOff[c]:stClauseOff[c+1]]
	stClauseOf  []int32  // literal index -> owning clause
	stLive      []int32  // undecided-literal count per clause
	stSatW      []uint64 // clause-satisfied bit-words
	stDeadW     []uint64 // literal-decided-false bit-words
	stOcc       []int32  // CSR occurrence lists: literal indices per var
	stOccOff    []int32  // per var id: occurrence range start in stOcc
	stOccEnd    []int32  // per var id: occurrence range end in stOcc
	stTrail     []int32  // undo log: +ei+1 literal-dead, -(c+1) clause-sat
	stIdx       []int32  // stack-discipline arena for clause-index lists
	// Per-literal probability memos (state.go). A live literal's effective
	// probability is a pure function of its own variables' assignments, so
	// the value computed at one recursion node is bit-identical at every
	// other node with the same assignments: stProb0 caches the unassigned
	// form once per compile (-1 = unset), and stEffP caches the
	// half-assigned var-vs-var form keyed by the assigned side and that
	// variable's assignment version (stVarVer, bumped on every stAssign).
	stProb0  []float64 // per literal: probability under no assignment
	stEffP   []float64 // per literal: half-assigned memo value
	stEffVer []uint64  // per literal: stVarVer at memo time (^0 = unset)
	stEffX   []bool    // per literal: memo taken with the x side assigned
	stVarVer []uint64  // per var id: assignment version counter
}

// solverPool recycles solver scratch across evaluations. sync.Pool is
// concurrency-safe, so during a parallel fan-out each in-flight Prob call
// owns a private solver: per-worker scratch without locks, and the hot
// path stays allocation-lean even under contention.
var solverPool = sync.Pool{
	New: func() any { return &solver{} },
}

// newSolver acquires pooled scratch, interns the variables of the clause
// set and captures their distributions. Callers return the solver with
// release once the evaluation is done.
func newSolver(ev *Evaluator, clauses [][]ctable.Expr) (*solver, [][]cexpr) {
	return newSolverGroups(ev, [][][]ctable.Expr{clauses}, nil)
}

// newSolverGroups is newSolver over several clause groups plus an
// optional augmenting unit clause [*unit]. The groups are interned as one
// conjunction without materialising a combined condition — the unit
// clause lives in solver scratch — so Pr(φ∧e) runs (the UBS/HHS inner
// loop) and the component-scan's partial re-solves allocate no augmented
// clause buffer per candidate.
func newSolverGroups(ev *Evaluator, groups [][][]ctable.Expr, unit *ctable.Expr) (*solver, [][]cexpr) {
	s := solverPool.Get().(*solver)
	s.opt = ev.Opt
	s.dists = s.dists[:0]
	s.vars = s.vars[:0]
	s.gids = s.gids[:0]
	s.narrow = s.narrow[:0]
	s.narrowed = s.narrowed[:0]
	s.nApprox = 0
	// One increment invalidates every intern slot left over from earlier
	// evaluations; see grow for why epoch stamping makes that sound.
	s.internEpoch++
	ev.number()
	if n := ev.IDs.Len(); len(s.idEp) < n {
		// Fresh stamps are 0, below every live epoch.
		s.idEp = make([]uint64, n)
		s.idLocal = make([]int32, n)
	}
	n, lits := 0, 0
	for _, g := range groups {
		n += len(g)
		for _, cl := range g {
			lits += len(cl)
		}
	}
	if unit != nil {
		n++
		lits++
	}
	// Arena carve: the buffers are pre-sized before any slice is carved,
	// so no append can reallocate under an aliasing clause.
	if cap(s.ceArena) < lits {
		s.ceArena = make([]cexpr, lits)
	} else {
		s.ceArena = s.ceArena[:lits]
	}
	if cap(s.clArena) < n {
		s.clArena = make([][]cexpr, n)
	} else {
		s.clArena = s.clArena[:n]
	}
	k, ci := 0, 0
	for _, g := range groups {
		for _, cl := range g {
			dst := s.ceArena[k : k+len(cl) : k+len(cl)]
			for j, e := range cl {
				dst[j] = s.intern(ev, e)
			}
			s.clArena[ci] = dst
			ci++
			k += len(cl)
		}
	}
	if unit != nil {
		s.ceArena[k] = s.intern(ev, *unit)
		s.clArena[ci] = s.ceArena[k : k+1 : k+1]
	}
	s.grow(len(s.dists))
	return s, s.clArena
}

// intern converts an expression to its dense form, assigning variable ids
// on first sight.
func (s *solver) intern(ev *Evaluator, e ctable.Expr) cexpr {
	switch e.Kind {
	case ctable.VarLTConst, ctable.VarGTConst:
		return cexpr{kind: e.Kind, x: s.internVar(ev, e.X), y: -1, c: int32(e.C)}
	case ctable.VarGTVar:
		return cexpr{kind: e.Kind, x: s.internVar(ev, e.X), y: s.internVar(ev, e.Y)}
	default:
		panic(fmt.Sprintf("prob: unknown expression kind %d", e.Kind))
	}
}

// internVar returns v's var id, assigning the next one on first sight
// and capturing v's distribution and narrowing.
func (s *solver) internVar(ev *Evaluator, v ctable.Var) int32 {
	gid, ok := ev.IDs.ID(v)
	if !ok {
		panic(fmt.Sprintf("prob: no distribution for %v", v))
	}
	if s.idEp[gid] == s.internEpoch {
		return s.idLocal[gid]
	}
	st := ev.Vars[gid]
	if st.Dist == nil {
		panic(fmt.Sprintf("prob: no distribution for %v", v))
	}
	id := int32(len(s.dists))
	s.idEp[gid], s.idLocal[gid] = s.internEpoch, id
	s.dists = append(s.dists, st.Dist)
	s.vars = append(s.vars, v)
	s.gids = append(s.gids, gid)
	s.narrow = append(s.narrow, st.Interval)
	s.narrowed = append(s.narrowed, st.Narrowed)
	return id
}

// varID returns the interned id of a variable the evaluation interned.
func (s *solver) varID(ev *Evaluator, v ctable.Var) int32 {
	gid, _ := ev.IDs.ID(v)
	return s.idLocal[gid]
}

// grow sizes the per-variable scratch for n interned variables. The epoch
// counter is deliberately preserved across reuse: every epoch-guarded
// lookup first increments s.epoch, so entries left over from earlier
// evaluations (all stamped with strictly older epochs) can never alias a
// fresh one — which is what makes recycling safe without clearing.
func (s *solver) grow(n int) {
	if cap(s.assign) < n {
		s.assign = make([]int32, n)
		s.seenEp = make([]int, n)
		s.counts = make([]int, n)
		s.ownerEp = make([]int, n)
		s.owner = make([]int, n)
		s.margNeed = make([]bool, n)
		s.satAssign = make([]int32, n)
		s.stOccOff = make([]int32, n)
		s.stOccEnd = make([]int32, n)
		s.stVarVer = make([]uint64, n)
	} else {
		s.assign = s.assign[:n]
		s.seenEp = s.seenEp[:n]
		s.counts = s.counts[:n]
		s.ownerEp = s.ownerEp[:n]
		s.owner = s.owner[:n]
		s.margNeed = s.margNeed[:n]
		s.satAssign = s.satAssign[:n]
		s.stOccOff = s.stOccOff[:n]
		s.stOccEnd = s.stOccEnd[:n]
		s.stVarVer = s.stVarVer[:n]
	}
	for i := range s.assign {
		s.assign[i] = -1
		s.margNeed[i] = false
	}
}

// release returns the solver's scratch to the pool, dropping the captured
// distribution references so pooled scratch never pins caller data.
func (s *solver) release() {
	for i := range s.dists {
		s.dists[i] = nil
	}
	solverPool.Put(s)
}

// exprProb is ExprProb over interned expressions and (possibly branched)
// distributions.
func (s *solver) exprProb(e cexpr) float64 {
	dx := s.dists[e.x]
	switch e.kind {
	case ctable.VarLTConst:
		p := 0.0
		for v := 0; v < len(dx) && v < int(e.c); v++ {
			p += dx[v]
		}
		return p
	case ctable.VarGTConst:
		p := 0.0
		// Hoist the v >= 0 clamp out of the loop: negative constants
		// (possible only for never-built degenerate expressions) just
		// start the scan at 0.
		start := int(e.c) + 1
		if start < 0 {
			start = 0
		}
		for v := start; v < len(dx); v++ {
			p += dx[v]
		}
		return p
	default: // VarGTVar
		dy := s.dists[e.y]
		p, cdf := 0.0, 0.0
		for a := 0; a < len(dx); a++ {
			if a-1 >= 0 && a-1 < len(dy) {
				cdf += dy[a-1]
			}
			p += dx[a] * cdf
		}
		return p
	}
}

// adpllTop is the ADPLL entry point (Algorithm 3) over a freshly interned
// clause set. It tries the paper's direct rule on the whole formula, then
// splits it into connected components, each solved in a canonical clause
// order and, when cache is non-nil, memoized under its canonical
// fingerprint. A nil cache keeps the canonical order and skips only the
// memoization — the single difference between cached and uncached
// evaluation is whether a component's probability is looked up or
// recomputed, never the arithmetic order, which is what makes the two
// modes bit-identical. Under Options.NoComponents the whole formula goes
// to the compiled engine as one unit, which then never decomposes.
func (s *solver) adpllTop(clauses [][]cexpr, cache *ComponentCache) float64 {
	// adpllTop is only entered on a fresh solver, so the assignment is
	// empty and nothing can be substituted: an empty clause set is true,
	// an empty clause false, and otherwise the interned arena is the
	// residual as it stands.
	if len(clauses) == 0 {
		return 1
	}
	for _, cl := range clauses {
		if len(cl) == 0 {
			return 0
		}
	}
	if p, ok := s.directProb(clauses); ok {
		return p
	}
	if s.opt.NoComponents {
		return s.stSolve(clauses)
	}
	comps := s.components(clauses)
	p := 1.0
	for _, comp := range comps {
		p *= s.componentProb(comp, cache)
		if p == 0 {
			return 0
		}
	}
	return p
}

// componentProb returns Pr(comp) for one connected component, consulting
// the cache for components that would need branching. Components decided
// by the direct independence rule are recomputed every time: they cost
// as little as fingerprinting them would, and caching them would crowd
// out entries that save real branching work.
//
// Branched components are solved exactly by the compiled bitset
// clause-state engine (state.go). When Options.ApproxThreshold is set and
// the component holds more distinct variables than the threshold, the
// exact count is replaced by a Monte Carlo estimate (approxComponent)
// seeded from the component's canonical structural key — the decision
// and the estimate are pure functions of the component, so results stay
// deterministic at any worker count, schedule, and cache state.
func (s *solver) componentProb(comp [][]cexpr, cache *ComponentCache) float64 {
	if p, ok := s.directProb(comp); ok {
		return p
	}
	key, structLen := s.fingerprint(comp, scalarKeyPrefix)
	if cache != nil {
		if e, ok := s.lookup(cache, key); ok {
			return e.p
		}
	}
	// The variables are gathered once per miss: the approximation
	// threshold and the store both read them.
	var vars []ctable.Var
	if cache != nil || s.opt.ApproxThreshold > 0 {
		vars = s.componentVars(comp)
	}
	var p float64
	if s.opt.ApproxThreshold > 0 && len(vars) > s.opt.ApproxThreshold {
		p = s.approxComponent(comp, key[:structLen])
	} else {
		p = s.stSolve(comp)
	}
	if cache != nil {
		s.store(cache, key, cacheEntry{p: p, vars: slices.Clone(vars)})
	}
	return p
}

// lookup consults the cache, counting the outcome for the evaluator.
func (s *solver) lookup(cache *ComponentCache, key []byte) (cacheEntry, bool) {
	e, ok := cache.lookup(key)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return e, ok
}

// store memoizes e, counting the evictions it caused for the evaluator.
func (s *solver) store(cache *ComponentCache, key []byte, e cacheEntry) {
	s.evicted += uint64(cache.store(key, e))
}

// litHolds evaluates a literal with its variables at values x and y (y
// is unused by a constant comparison).
func litHolds(e cexpr, x, y int32) bool {
	switch e.kind {
	case ctable.VarLTConst:
		return x < e.c
	case ctable.VarGTConst:
		return x > e.c
	default: // VarGTVar
		return x > y
	}
}

// directProb applies the independent-conjunction and general-disjunction
// rules when every variable occurs exactly once across the clause set.
func (s *solver) directProb(clauses [][]cexpr) (p float64, ok bool) {
	s.epoch++
	for _, cl := range clauses {
		for _, e := range cl {
			if s.seenEp[e.x] == s.epoch {
				return 0, false
			}
			s.seenEp[e.x] = s.epoch
			if e.y >= 0 {
				if s.seenEp[e.y] == s.epoch {
					return 0, false
				}
				s.seenEp[e.y] = s.epoch
			}
		}
	}
	p = 1.0
	for _, cl := range clauses {
		qAllFalse := 1.0
		for _, e := range cl {
			qAllFalse *= 1 - s.exprProb(e)
		}
		p *= 1 - qAllFalse
	}
	return p, true
}

// components groups clauses into connected components of the clause-
// variable incidence graph using an epoch-versioned owner table. The
// groups list their clauses in input order. The result lives in solver
// scratch, valid until the next call.
func (s *solver) components(clauses [][]cexpr) [][][]cexpr {
	n := len(clauses)
	parent := resizeInts(s.compParent, n)
	s.compParent = parent
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	s.epoch++
	claim := func(v int32, clause int) {
		if s.ownerEp[v] == s.epoch {
			ra, rb := find(s.owner[v]), find(clause)
			if ra != rb {
				parent[ra] = rb
			}
			return
		}
		s.ownerEp[v] = s.epoch
		s.owner[v] = clause
	}
	for i, cl := range clauses {
		for _, e := range cl {
			claim(e.x, i)
			if e.y >= 0 {
				claim(e.y, i)
			}
		}
	}

	// Single component fast path.
	root := find(0)
	single := true
	for i := 1; i < n; i++ {
		if find(i) != root {
			single = false
			break
		}
	}
	if single {
		s.compOut = append(s.compOut[:0], clauses)
		return s.compOut
	}

	// Compact the root ids into group indices without map hashing, count
	// each group's clauses, and carve the groups from one clause buffer.
	groupOf := resizeInts(s.compGroup, n)
	s.compGroup = groupOf
	nGroups := 0
	for i := range clauses {
		if find(i) == i {
			groupOf[i] = nGroups
			nGroups++
		}
	}
	sizes := resizeInts(s.compSize, nGroups)
	s.compSize = sizes
	clear(sizes)
	for i := range clauses {
		groupOf[i] = groupOf[find(i)]
		sizes[groupOf[i]]++
	}
	if cap(s.compClauses) < n {
		s.compClauses = make([][]cexpr, n)
	}
	out := s.compOut[:0]
	off := 0
	for _, size := range sizes {
		out = append(out, s.compClauses[off:off:off+size])
		off += size
	}
	for i, cl := range clauses {
		out[groupOf[i]] = append(out[groupOf[i]], cl)
	}
	s.compOut = out
	return out
}

// resizeInts returns w resized to n, reallocating only when it is too
// short; the contents are unspecified.
func resizeInts(w []int, n int) []int {
	if cap(w) < n {
		return make([]int, n)
	}
	return w[:n]
}
