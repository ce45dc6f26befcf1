package prob

import (
	"fmt"
	"slices"
	"sync"

	"bayescrowd/internal/ctable"
)

// The solver is the allocation-lean engine behind ADPLL. It reads a
// condition's stored form in place (ctable's form.go): the condition's
// variable table numbers the solver's variables — local id v is table
// variable v, resolved to its distribution and narrowing on first use in
// an evaluation, with up to two extra ids for a probe's unit clause over
// variables the condition does not mention — and its literals, already
// in the solver's ctable.Lit form, are copied into per-evaluation arenas
// in build order or in a component's stored canonical order. Nothing is
// interned, sorted or hashed per evaluation except a probe's merged
// component. This file holds the loading, the literal evaluators
// (exprProb, litProb, litHolds), and the top level: the direct rule, the
// per-component dispatch through the cache and the approximate
// fallback, and the unit-clause probes. Component keys are in
// fingerprint.go; branching itself runs on the compiled clause-state
// engine in state.go; the sampling estimators are in approxcount.go.
//
// Two build orders survive from the condition as built, because the
// frozen corpora pin their arithmetic: components multiply in the
// stored component order (by last clause), and the direct rule
// multiplies a clause's literals in build order. Only branching — the
// compiled engine, the samplers and the marginal sweeps — runs on the
// canonical order, which is what makes a component's value a pure
// function of its cache key.

type solver struct {
	opt  Options
	ev   *Evaluator
	cond *ctable.Condition
	// nTable is the loaded condition's table size: ids below it are table
	// variables, the rest a probe's extra variables.
	nTable int
	// Per var id: the distribution, the real variable and the narrowing
	// the component keys carry, valid once resEp[v] == resEpoch. One
	// increment of resEpoch unresolves every id between evaluations.
	resEp    []uint64
	resEpoch uint64
	dists    [][]float64
	vars     []ctable.Var
	narrow   []Interval
	narrowed []bool
	// assign[v] is the branched value of var v, or -1.
	assign []int32
	// Scratch epochs avoid clearing per-var arrays on every recursion.
	epoch   int
	seenEp  []int // stDirectProb / stPickVar / firstVars bookkeeping
	counts  []int
	ownerEp []int // stComponents bookkeeping
	owner   []int
	// pos[v] is v's position in the last firstVars list; appear is
	// approxCount's copy of it over the whole clause set.
	pos, appear []int32
	// ceArena and clArena back the clause lists of one evaluation: the
	// literals live in one flat buffer and the clause headers in one
	// reused slice, both sized before any clause is carved, so a Pr(φ∧e)
	// probe lays out its clauses — augmenting unit clause included — with
	// zero per-clause allocations. idxBuf and litBuf are clause-index
	// and literal scratch.
	ceArena []ctable.Lit
	clArena [][]ctable.Lit
	idxBuf  []int32
	litBuf  []ctable.Lit
	// shapeBuf and varsBuf hold a component's exact-compare encoding and
	// its variables (fingerprint.go), reused across components.
	shapeBuf []byte
	varsBuf  []ctable.Var
	// margNeed marks the variables the all-marginals pass must report
	// vectors for (set by the scan planner, false everywhere otherwise),
	// and sweep turns the recursion's vector bookkeeping on (set by
	// marginals, cleared by solverFor).
	margNeed []bool
	sweep    bool
	// satVars is firstVars' output, the samplers' variable draw order.
	// The rest is sampler scratch (approxcount.go): the dense working
	// assignment, ApproxCount's per-level live literals in effective form
	// (satLits, carved per clause into satClauses) and its per-value
	// sample counts.
	satVars    []int32
	satAssign  []int32
	satLits    []ctable.Lit
	satClauses [][]ctable.Lit
	satCounts  []float64
	// nApprox counts the connected components this evaluation resolved
	// through the approximate estimator (Options.ApproxThreshold), and
	// hits, misses and evicted its cache traffic; the public entry points
	// drain them into the evaluator's counters.
	nApprox               int
	hits, misses, evicted uint64

	// Bitset clause-state engine scratch (state.go). stSolve
	// compiles the component into a flat literal arena once; the recursion
	// below it then touches only bit-words, counters and the undo trail —
	// no per-node clause rewriting, no per-node allocation. An assignment
	// visits only the occurrence list its branch node carved into stIdx.
	stExprs     []ctable.Lit // literal arena, clause-contiguous
	stClauseOff []int32      // clause c = stExprs[stClauseOff[c]:stClauseOff[c+1]]
	stClauseOf  []int32      // literal index -> owning clause
	stLive      []int32      // undecided-literal count per clause
	stSatW      []uint64     // clause-satisfied bit-words
	stDeadW     []uint64     // literal-decided-false bit-words
	stTrail     []int32      // undo log: +ei+1 literal-dead, -(c+1) clause-sat
	stIdx       []int32      // stack-discipline arena: clause and occurrence lists
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

// solverFor acquires pooled scratch for evaluating cond, with extra
// spare var ids for a probe's unit clause. Callers return the solver
// with release once the evaluation is done.
func (ev *Evaluator) solverFor(cond *ctable.Condition, extra int) *solver {
	s := solverPool.Get().(*solver)
	s.opt, s.ev, s.cond = ev.Opt, ev, cond
	s.nApprox, s.sweep = 0, false
	ev.number()
	s.nTable = len(cond.Table())
	n := s.nTable + extra
	s.dists = resize(s.dists, n)
	s.vars = resize(s.vars, n)
	s.narrow = resize(s.narrow, n)
	s.narrowed = resize(s.narrowed, n)
	// Stamps past the old length are left from earlier evaluations, hence
	// below the new epoch; fresh ones are 0.
	s.resEp = resize(s.resEp, n)
	s.resEpoch++
	s.grow(n)
	return s
}

// resize returns w resized to n, reallocating only when it is too short;
// the contents are unspecified.
func resize[T any](w []T, n int) []T {
	if cap(w) < n {
		return make([]T, n)
	}
	return w[:n]
}

// use resolves table variable v on its first use in the evaluation.
func (s *solver) use(v int32) {
	if s.resEp[v] != s.resEpoch {
		s.resolve(v, s.cond.Table()[v])
	}
}

// useLit resolves a literal's variables.
func (s *solver) useLit(l ctable.Lit) {
	s.use(l.X)
	if l.Y >= 0 {
		s.use(l.Y)
	}
}

// resolve binds var id v to x's state in the evaluator.
func (s *solver) resolve(v int32, x ctable.Var) {
	gid, ok := s.ev.IDs.ID(x)
	if !ok || s.ev.Vars[gid].Dist == nil {
		panic(fmt.Sprintf("prob: no distribution for %v", x))
	}
	st := &s.ev.Vars[gid]
	s.dists[v], s.vars[v], s.narrow[v], s.narrowed[v] = st.Dist, x, st.Interval, st.Narrowed
	s.resEp[v] = s.resEpoch
}

// unitLit returns e as a literal over the loaded condition's ids, giving
// a variable the condition does not mention one of the extra ids.
func (s *solver) unitLit(e ctable.Expr) ctable.Lit {
	next := int32(s.nTable)
	local := func(x ctable.Var) int32 {
		if i, ok := s.cond.VarIndex(x); ok {
			s.use(int32(i))
			return int32(i)
		}
		for v := int32(s.nTable); v < next; v++ {
			if s.vars[v] == x {
				return v
			}
		}
		next++
		s.resolve(next-1, x)
		return next - 1
	}
	l := ctable.Lit{Kind: e.Kind, X: local(e.X), Y: -1}
	switch e.Kind {
	case ctable.VarGTVar:
		l.Y = local(e.Y)
	case ctable.VarLTConst, ctable.VarGTConst:
		l.C = int32(e.C)
	default:
		panic(fmt.Sprintf("prob: unknown expression kind %d", e.Kind))
	}
	return l
}

// component returns the component a var id belongs to, or -1 for an
// extra id.
func (s *solver) component(v int32) int {
	if int(v) >= s.nTable {
		return -1
	}
	return s.cond.VarComponent(int(v))
}

// grow sizes the per-variable scratch for n var ids. The epoch
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
		s.pos = make([]int32, n)
		s.margNeed = make([]bool, n)
		s.satAssign = make([]int32, n)
		s.stVarVer = make([]uint64, n)
	} else {
		s.assign = s.assign[:n]
		s.seenEp = s.seenEp[:n]
		s.counts = s.counts[:n]
		s.ownerEp = s.ownerEp[:n]
		s.owner = s.owner[:n]
		s.pos = s.pos[:n]
		s.margNeed = s.margNeed[:n]
		s.satAssign = s.satAssign[:n]
		s.stVarVer = s.stVarVer[:n]
	}
	for i := range s.assign {
		s.assign[i] = -1
		s.margNeed[i] = false
	}
}

// release returns the solver's scratch to the pool, dropping the captured
// distribution and condition references so pooled scratch never pins
// caller data.
func (s *solver) release() {
	for i := range s.dists {
		s.dists[i] = nil
	}
	s.ev, s.cond = nil, nil
	solverPool.Put(s)
}

// exprProb is ExprProb over solver literals and (possibly branched)
// distributions.
func (s *solver) exprProb(e ctable.Lit) float64 {
	var dy []float64
	if e.Y >= 0 {
		dy = s.dists[e.Y]
	}
	return litProb(e.Kind, s.dists[e.X], dy, int(e.C))
}

// litProb returns the probability of a literal of the given kind over
// independent distributions dx of its variable and, for x > y, dy of its
// other side: the mass of the values satisfying x < c or x > c, or
// Σ_a dx[a]·Pr(y < a).
func litProb(kind ctable.Kind, dx, dy []float64, c int) float64 {
	p := 0.0
	switch kind {
	case ctable.VarLTConst:
		for v := 0; v < len(dx) && v < c; v++ {
			p += dx[v]
		}
	case ctable.VarGTConst:
		// Hoist the v >= 0 clamp out of the loop: a negative constant
		// just starts the scan at 0.
		for v := max(c+1, 0); v < len(dx); v++ {
			p += dx[v]
		}
	default: // VarGTVar
		cdf := 0.0
		for a := 0; a < len(dx); a++ {
			if a-1 >= 0 && a-1 < len(dy) {
				cdf += dy[a-1]
			}
			p += dx[a] * cdf
		}
	}
	return p
}

// arena empties the clause arenas, sized for every literal of the
// condition plus a unit clause and for nc clause headers: slices carved
// from them stay valid until the next call, since nothing appends past
// the sizes.
func (s *solver) arena(nc int) {
	s.ceArena = resize(s.ceArena, s.cond.NumExprs()+1)[:0]
	s.clArena = resize(s.clArena, nc)[:0]
}

// carve appends the clause the literals appended since mark form.
func (s *solver) carve(mark int) {
	cl := s.ceArena[mark:len(s.ceArena):len(s.ceArena)]
	for _, l := range cl {
		s.useLit(l)
	}
	s.clArena = append(s.clArena, cl)
}

// buildClauses lays out, in build order, every clause of the condition
// when comps is nil, else the clauses of the listed components component
// by component, then the unit clause [*unit] when unit is non-nil.
func (s *solver) buildClauses(comps []int, unit *ctable.Lit) [][]ctable.Lit {
	idx := s.idxBuf[:0]
	if comps == nil {
		for i := 0; i < s.cond.NumClauses(); i++ {
			idx = append(idx, int32(i))
		}
	}
	for _, g := range comps {
		mark := len(idx)
		idx = append(idx, s.cond.Component(g).Canon...)
		slices.Sort(idx[mark:])
	}
	s.idxBuf = idx
	s.arena(len(idx) + 1)
	for _, ci := range idx {
		mark := len(s.ceArena)
		s.ceArena = s.cond.AppendClause(s.ceArena, int(ci))
		s.carve(mark)
	}
	if unit != nil {
		s.ceArena = append(s.ceArena, *unit)
		s.carve(len(s.ceArena) - 1)
	}
	return s.clArena
}

// canonClauses lays out component g's clauses in canonical order.
func (s *solver) canonClauses(g int) [][]ctable.Lit {
	canon := s.cond.Component(g).Canon
	s.arena(len(canon))
	for _, ci := range canon {
		mark := len(s.ceArena)
		s.ceArena = s.cond.AppendCanonClause(s.ceArena, int(ci))
		s.carve(mark)
	}
	return s.clArena
}

// mergedClauses lays out the canonical order of the listed components
// merged with the unit clause [u]: each component's stored order, merged
// with the others' and u by the canonical clause order.
func (s *solver) mergedClauses(comps []int, u ctable.Lit) [][]ctable.Lit {
	nc := 1
	for _, g := range comps {
		nc += len(s.cond.Component(g).Canon)
	}
	// Headers: the per-component lists, the unit, then the merge.
	s.arena(2 * nc)
	var lists [3][][]ctable.Lit
	for i, g := range comps {
		start := len(s.clArena)
		for _, ci := range s.cond.Component(g).Canon {
			mark := len(s.ceArena)
			s.ceArena = s.cond.AppendCanonClause(s.ceArena, int(ci))
			s.carve(mark)
		}
		lists[i] = s.clArena[start:]
	}
	s.ceArena = append(s.ceArena, u)
	s.carve(len(s.ceArena) - 1)
	lists[len(comps)] = s.clArena[len(s.clArena)-1:]
	out := s.clArena[len(s.clArena):len(s.clArena)]
	for {
		best := -1
		for i := range lists[:len(comps)+1] {
			if len(lists[i]) > 0 && (best < 0 || s.cmpClause(lists[i][0], lists[best][0]) < 0) {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
}

// cmpClause orders two laid-out clauses canonically: their literals
// compared lexicographically by ctable.CompareLits, a proper prefix
// first.
func (s *solver) cmpClause(a, b []ctable.Lit) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := ctable.CompareLits(s.vars, a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// prob is the ADPLL entry point (Algorithm 3) over the loaded
// condition: the product, in stored component order, of each component's
// probability (compProb), stopping at zero. A condition whose every
// variable occurs once is a product of direct components, which is the
// paper's direct rule over the whole formula. Under Options.NoComponents
// the whole formula goes to the compiled recursion as one unit, in build
// order.
func (s *solver) prob(cache *ComponentCache) float64 {
	if s.opt.NoComponents {
		return s.wholeProb(s.buildClauses(nil, nil))
	}
	p := 1.0
	for g := 0; g < s.cond.NumComponents(); g++ {
		p *= s.compProb(g, cache)
		if p == 0 {
			return 0
		}
	}
	return p
}

// wholeProb is the NoComponents path over a laid-out clause list: one
// run of the compiled recursion from its root, whose first step is the
// direct rule, in the list's order.
func (s *solver) wholeProb(clauses [][]ctable.Lit) float64 {
	p, _ := s.stNode(s.stRoot(clauses))
	return p
}

// probWith returns Pr(φ ∧ u) for the loaded condition and a unit clause
// [u]: the components u does not touch multiply in stored order, then
// the touched ones, merged with [u] into one component, or [u] alone
// when it touches none.
func (s *solver) probWith(u ctable.Lit, cache *ComponentCache) float64 {
	if s.opt.NoComponents {
		return s.wholeProb(s.buildClauses(nil, &u))
	}
	var buf [2]int
	touched := s.touched(u, buf[:0])
	p := 1.0
	for g := 0; g < s.cond.NumComponents(); g++ {
		if slices.Contains(touched, g) {
			continue
		}
		p *= s.compProb(g, cache)
		if p == 0 {
			return 0
		}
	}
	if len(touched) == 0 {
		return p * s.unitProb(u, cache)
	}
	return p * s.mergedProb(touched, u, cache)
}

// touched appends to dst the components holding u's variables, x's
// first.
func (s *solver) touched(u ctable.Lit, dst []int) []int {
	if g := s.component(u.X); g >= 0 {
		dst = append(dst, g)
	}
	if u.Y >= 0 {
		if g := s.component(u.Y); g >= 0 && !slices.Contains(dst, g) {
			dst = append(dst, g)
		}
	}
	return dst
}

// compProb returns Pr of component g, consulting the cache for
// components that need branching. A direct component — a single clause
// whose variables occur once — is priced by the direct rule every time:
// it costs as little as keying it would, and caching it would crowd out
// entries that save real branching work. Under NoComponents a branched
// component is solved in build order and never cached.
func (s *solver) compProb(g int, cache *ComponentCache) float64 {
	comp := s.cond.Component(g)
	if comp.Direct {
		return s.directClause(comp.Canon[0])
	}
	if s.opt.NoComponents {
		return s.stSolve(s.buildClauses([]int{g}, nil))
	}
	return s.keyed(s.canonClauses(g), comp.Hash, cache)
}

// unitProb returns Pr(u) for a unit clause sharing no variable with the
// condition, the way the direct rule prices a one-literal clause — or,
// for the degenerate x > x, by a keyed solve.
func (s *solver) unitProb(u ctable.Lit, cache *ComponentCache) float64 {
	if u.Kind == ctable.VarGTVar && u.X == u.Y {
		s.arena(1)
		s.ceArena = append(s.ceArena, u)
		s.carve(0)
		return s.keyed(s.clArena, s.structHash(s.clArena), cache)
	}
	return 1 - (1 - s.exprProb(u))
}

// mergedProb returns Pr(comps ∧ u) for the components u touches, merged
// with [u] into one component: u shares a variable with them, so the
// direct rule never applies, and the merged canonical order is hashed
// afresh.
func (s *solver) mergedProb(comps []int, u ctable.Lit, cache *ComponentCache) float64 {
	clauses := s.mergedClauses(comps, u)
	return s.keyed(clauses, s.structHash(clauses), cache)
}

// probe returns Pr(comps ∧ u) for the scan's touched components (one or
// two) and a unit clause over their variables: the merged component,
// or under NoComponents one compiled solve over the components' clauses
// in build order, component by component, then [u].
func (s *solver) probe(comps []int, u ctable.Lit, cache *ComponentCache) float64 {
	if s.opt.NoComponents {
		return s.wholeProb(s.buildClauses(comps, &u))
	}
	return s.mergedProb(comps, u, cache)
}

// directClause prices one clause whose variables each occur once by the
// direct rule, its literals in build order:
// 1 − Π(1 − Pr(e)).
func (s *solver) directClause(ci int32) float64 {
	s.litBuf = s.cond.AppendClause(s.litBuf[:0], int(ci))
	q := 1.0
	for _, l := range s.litBuf {
		s.useLit(l)
		q *= 1 - s.exprProb(l)
	}
	return 1 - q
}

// litHolds evaluates a literal with its variables at values x and y (y
// is unused by a constant comparison).
func litHolds(e ctable.Lit, x, y int32) bool {
	switch e.Kind {
	case ctable.VarLTConst:
		return x < e.C
	case ctable.VarGTConst:
		return x > e.C
	default: // VarGTVar
		return x > y
	}
}
