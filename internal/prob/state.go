package prob

import "bayescrowd/internal/ctable"

// Compiled bitset clause-state engine: the ADPLL recursion (Algorithm 3)
// every exact Pr(φ), Pr(φ∧e) and marginal sweep runs on. It is one
// recursion, a node step (stNode) and a branch step (stBranch); a
// marginal sweep runs it with its vector bookkeeping switched on
// (stmarginals.go).
//
// A textbook ADPLL rewrites the clause set at every node — a fresh
// residual with assigned variables substituted into constant forms, and
// another allocation for the component split. Per-node allocation would
// dominate the selection phase, where the UBS/HHS candidate loop solves
// tens of thousands of small components per round. Instead, this engine
// compiles a component once per solve into flat, reusable solver
// scratch:
//
//   - a literal arena (stExprs) with per-clause offsets, in the canonical
//     order the fingerprint established;
//   - liveness as bit-words — one bit per clause ("satisfied, drop it")
//     and one per literal ("decided false, skip it") — plus a live-literal
//     counter per clause that detects empty clauses eagerly;
//   - branch-local occurrence lists: stBranch carves, once per branch
//     node, the live literals of its own clause list that mention the
//     branch variable (stOccOf), and every value it tries walks only
//     that list — never literals in satisfied clauses or in other
//     components;
//   - an undo trail: every bit set while descending is recorded and
//     reverted before the next branch value, DPLL-style.
//
// Substitution is evaluated dynamically instead of by rewriting: a
// var-vs-var literal with one side assigned is *read* as its effective
// form, the constant comparison on the other side (stEffLit). Clauses
// and literals keep their compiled order, so every sum and product runs
// in one fixed order however the recursion reaches it — which is what
// keeps results bit-stable across worker counts and cache states. The frozen engine corpus
// (state_equiv_test.go) pins every output bit to the seed's
// clause-rewriting engine, and Naive enumeration checks the mathematics
// (prob_test.go, TestSweepVectorsMatchNaive).
//
// Recursion-local index lists (residuals, component groups, occurrence
// lists) are carved from a stack-disciplined int32 arena (stIdx): stBranch
// records the arena length before its occurrence list and before each
// child node and truncates back after them, so steady-state recursion
// allocates nothing. Slices carved before a
// reallocation keep pointing into the old backing array; that is sound
// because a carved list is append-filled only through its own capped
// slice and read-only afterwards.

// stRoot compiles a laid-out clause list under an empty assignment and
// returns its root clause-index list, the entry of every compiled solve.
func (s *solver) stRoot(laid [][]ctable.Lit) []int32 {
	s.stCompile(laid)
	s.stTrail = s.stTrail[:0]
	s.stIdx = s.stIdx[:0]
	for c := range laid {
		s.stIdx = append(s.stIdx, int32(c))
	}
	return s.stIdx[:len(laid)]
}

// stSolve solves a clause set — a connected component in its stored
// canonical order, or under NoComponents a component in build order —
// by branching on its most frequent variable. The callers have already
// tried the direct rule.
func (s *solver) stSolve(comp [][]ctable.Lit) float64 {
	root := s.stRoot(comp)
	p, _ := s.stBranch(root, s.stPickVar(root))
	return p
}

// stCompile loads the component into the arena and resets the liveness
// state. The clause and literal order of comp is preserved exactly.
func (s *solver) stCompile(comp [][]ctable.Lit) {
	s.stExprs = s.stExprs[:0]
	s.stClauseOff = s.stClauseOff[:0]
	s.stClauseOf = s.stClauseOf[:0]
	s.stLive = s.stLive[:0]
	for c, cl := range comp {
		s.stClauseOff = append(s.stClauseOff, int32(len(s.stExprs)))
		for _, e := range cl {
			s.stExprs = append(s.stExprs, e)
			s.stClauseOf = append(s.stClauseOf, int32(c))
		}
		s.stLive = append(s.stLive, int32(len(cl)))
	}
	nLit := len(s.stExprs)
	s.stClauseOff = append(s.stClauseOff, int32(nLit))

	s.stSatW = resizeClearWords(s.stSatW, (len(comp)+63)/64)
	s.stDeadW = resizeClearWords(s.stDeadW, (nLit+63)/64)

	// Literal probability memos: the unassigned form is unset (-1) until
	// first use, the half-assigned slots are invalidated by the version
	// sentinel (stVarVer never reaches ^0). stEffP/stEffX need no clearing
	// — stEffVer gates them.
	s.stProb0 = resizeFillFloats(s.stProb0, nLit, -1)
	s.stEffVer = resizeFillWords(s.stEffVer, nLit, ^uint64(0))
	if cap(s.stEffP) < nLit {
		s.stEffP = make([]float64, nLit)
		s.stEffX = make([]bool, nLit)
	} else {
		s.stEffP = s.stEffP[:nLit]
		s.stEffX = s.stEffX[:nLit]
	}
}

func resizeClearWords(w []uint64, n int) []uint64 {
	if cap(w) < n {
		return make([]uint64, n)
	}
	w = w[:n]
	for i := range w {
		w[i] = 0
	}
	return w
}

func resizeFillWords(w []uint64, n int, v uint64) []uint64 {
	if cap(w) < n {
		w = make([]uint64, n)
	} else {
		w = w[:n]
	}
	for i := range w {
		w[i] = v
	}
	return w
}

func resizeFillFloats(w []float64, n int, v float64) []float64 {
	if cap(w) < n {
		w = make([]float64, n)
	} else {
		w = w[:n]
	}
	for i := range w {
		w[i] = v
	}
	return w
}

func (s *solver) stClauseSat(c int32) bool {
	return s.stSatW[c>>6]&(1<<uint(c&63)) != 0
}

func (s *solver) stLitDead(ei int32) bool {
	return s.stDeadW[ei>>6]&(1<<uint(ei&63)) != 0
}

// stAssign applies v=a to the state, visiting each literal of occ, v's
// occurrence list from stOccOf, once: a literal the assignment decides
// either satisfies its clause (sat bit) or dies (dead bit, live counter).
// dead reports that some clause ran out of live literals — the
// subformula is false under this branch. All mutations are trailed for
// stRewind.
func (s *solver) stAssign(v, a int32, occ []int32) (dead bool) {
	s.assign[v] = a
	s.stVarVer[v]++
	for _, ei := range occ {
		c := s.stClauseOf[ei]
		if s.stClauseSat(c) {
			continue
		}
		e := s.stExprs[ei]
		x, y := a, int32(0)
		if e.Kind == ctable.VarGTVar {
			// Decided once both sides are assigned.
			if e.X == v {
				y = s.assign[e.Y]
			} else {
				x, y = s.assign[e.X], a
			}
			if x < 0 || y < 0 {
				continue
			}
		}
		val := litHolds(e, x, y)
		if val {
			s.stSatW[c>>6] |= 1 << uint(c&63)
			s.stTrail = append(s.stTrail, -(c + 1))
		} else {
			s.stDeadW[ei>>6] |= 1 << uint(ei&63)
			s.stTrail = append(s.stTrail, ei+1)
			s.stLive[c]--
			if s.stLive[c] == 0 {
				dead = true
			}
		}
	}
	return dead
}

// stOccHook, when set, sees every list stOccOf carves. Tests set it to
// check the carving against the whole compiled arena; it is nil otherwise.
var stOccHook func(s *solver, clauses []int32, v int32, occ []int32)

// stOccOf carves from the arena the live literals of clauses that
// mention unassigned var id v, in clause and literal order: the list
// stAssign walks for every value of v. clauses must be unsatisfied and
// hold every unsatisfied clause with a live literal on v, as any
// residual component does: such a literal makes v an effective variable
// of its clause, and assignment only removes effective variables, so
// components never merge further down.
func (s *solver) stOccOf(clauses []int32, v int32) []int32 {
	base := len(s.stIdx)
	for _, c := range clauses {
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if e := s.stExprs[ei]; (e.X == v || e.Y == v) && !s.stLitDead(ei) {
				s.stIdx = append(s.stIdx, ei)
			}
		}
	}
	occ := s.stIdx[base:len(s.stIdx):len(s.stIdx)]
	if stOccHook != nil {
		stOccHook(s, clauses, v, occ)
	}
	return occ
}

// stRewind reverts the trail back to mark.
func (s *solver) stRewind(mark int) {
	for i := len(s.stTrail) - 1; i >= mark; i-- {
		u := s.stTrail[i]
		if u > 0 {
			ei := u - 1
			s.stDeadW[ei>>6] &^= 1 << uint(ei&63)
			s.stLive[s.stClauseOf[ei]]++
		} else {
			c := -u - 1
			s.stSatW[c>>6] &^= 1 << uint(c&63)
		}
	}
	s.stTrail = s.stTrail[:mark]
}

// stEffLit returns a live literal in its effective form: a var-vs-var
// literal with one side assigned reads as the constant comparison on its
// other side; any other live literal is its own effective form. (A live
// constant literal always has its variable unassigned — assignment would
// have decided it — and a live var-vs-var literal has at most one side
// assigned.)
func (s *solver) stEffLit(e ctable.Lit) ctable.Lit {
	if e.Kind == ctable.VarGTVar {
		if x := s.assign[e.X]; x >= 0 {
			return ctable.Lit{Kind: ctable.VarLTConst, X: e.Y, Y: -1, C: x}
		}
		if y := s.assign[e.Y]; y >= 0 {
			return ctable.Lit{Kind: ctable.VarGTConst, X: e.X, Y: -1, C: y}
		}
	}
	return e
}

// stVisitEff calls fn for each variable of a live literal's effective
// form, x then y.
func (s *solver) stVisitEff(e ctable.Lit, fn func(v int32)) {
	e = s.stEffLit(e)
	fn(e.X)
	if e.Y >= 0 {
		fn(e.Y)
	}
}

// stNode is one ADPLL node over a clause-index list: drop satisfied
// clauses, try the direct rule, else branch — per connected component
// unless NoComponents is set. During a marginal sweep (s.sweep) it also
// returns the needed variables' joint vectors (stmarginals.go); otherwise
// the set is nil and no vector bookkeeping runs. Its clause-index lists
// are carved from stIdx, and the caller truncates them.
func (s *solver) stNode(clauses []int32) (float64, marginalSet) {
	// Residual = the clauses not yet satisfied; an emptied clause was
	// already detected by stAssign, so reaching here means none is empty.
	rbase := len(s.stIdx)
	for _, c := range clauses {
		if !s.stClauseSat(c) {
			s.stIdx = append(s.stIdx, c)
		}
	}
	residual := s.stIdx[rbase:len(s.stIdx)]
	if len(residual) == 0 {
		return 1, nil
	}
	if p, ok := s.stDirectProb(residual); ok {
		if !s.sweep {
			return p, nil
		}
		return p, s.stLeafMarginals(residual)
	}
	// Branch on the whole residual under NoComponents, and skip the
	// union-find for a one-clause residual, trivially a single component.
	if s.opt.NoComponents || len(residual) == 1 {
		return s.stBranch(residual, s.stPickVar(residual))
	}
	comps, single := s.stComponents(residual)
	if single {
		return s.stBranch(residual, s.stPickVar(residual))
	}
	// The product stops once it hits zero: the remaining components'
	// vectors would all be zero, which the nil set says.
	p := 1.0
	var vals []float64
	var sets []marginalSet
	if s.sweep {
		vals = make([]float64, len(comps))
		sets = make([]marginalSet, len(comps))
	}
	for i, comp := range comps {
		var q float64
		var m marginalSet
		if direct, ok := s.stDirectProb(comp); ok {
			q = direct
			if s.sweep {
				m = s.stLeafMarginals(comp)
			}
			p *= q
		} else {
			q, m = s.stBranch(comp, s.stPickVar(comp))
			p *= q
			if p == 0 {
				return 0, nil
			}
		}
		if s.sweep {
			vals[i], sets[i] = q, m
		}
	}
	if !s.sweep {
		return p, nil
	}
	return p, scaleSets(vals, sets)
}

// stBranch enumerates the values of var id v weighted by its
// distribution, assigning through the trail over v's occurrence list,
// carved once from clauses, and truncating each child's carvings. During
// a sweep it mixes the children's vectors (mixBranch).
func (s *solver) stBranch(clauses []int32, v int32) (float64, marginalSet) {
	base := len(s.stIdx)
	occ := s.stOccOf(clauses, v)
	kids := len(s.stIdx)
	var need []int32
	var mv []float64
	var out marginalSet
	if s.sweep {
		need = s.stNeeded(clauses, v)
		if s.margNeed[v] {
			mv = make([]float64, len(s.dists[v]))
		}
		//lint:ignore hotalloc marginal result set handed to the caller, who owns and keeps it
		out = marginalSet{}
	}
	total := 0.0
	for a, pa := range s.dists[v] {
		if pa == 0 {
			continue
		}
		mark := len(s.stTrail)
		// An emptied clause means the child subformula is false: value 0
		// and no vectors.
		var cv float64
		var cm marginalSet
		if dead := s.stAssign(v, int32(a), occ); !dead {
			cv, cm = s.stNode(clauses)
			s.stIdx = s.stIdx[:kids]
			total += pa * cv
		}
		s.stRewind(mark)
		s.assign[v] = -1
		if s.sweep {
			s.mixBranch(out, need, pa, cv, cm)
			if mv != nil {
				mv[a] = pa * cv
			}
		}
	}
	if mv != nil {
		out[v] = mv
	}
	s.stIdx = s.stIdx[:base]
	return total, out
}

// stPickVar returns the most frequent effective variable over the live
// literals (the first one under BranchFirstVar); ties go to the variable
// that reached the maximum count first.
func (s *solver) stPickVar(clauses []int32) int32 {
	s.epoch++
	best, bestCount := int32(-1), 0
	visit := func(v int32) {
		if s.seenEp[v] != s.epoch {
			s.seenEp[v] = s.epoch
			s.counts[v] = 0
		}
		s.counts[v]++
		if s.counts[v] > bestCount {
			best, bestCount = v, s.counts[v]
		}
	}
	for _, c := range clauses {
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			e := s.stExprs[ei]
			if s.opt.BranchFirstVar {
				return s.stEffLit(e).X
			}
			s.stVisitEff(e, visit)
		}
	}
	return best
}

// stProbUn returns literal ei's probability in its unassigned form,
// computing exprProb once per compile. exprProb is a pure function of the
// literal and the distributions, so the cached float is the identical
// value a recomputation would produce.
func (s *solver) stProbUn(ei int32, e ctable.Lit) float64 {
	if p := s.stProb0[ei]; p >= 0 {
		return p
	}
	p := s.exprProb(e)
	s.stProb0[ei] = p
	return p
}

// stEffHalf returns the probability of a half-assigned var-vs-var literal,
// memoized under the assigned side's assignment version: while that
// variable keeps its branched value the effective form — and therefore the
// summation exprProb runs over it — is unchanged, so the cached float is
// bit-identical to a recomputation. Any re-assignment bumps stVarVer and
// misses the memo.
func (s *solver) stEffHalf(ei int32, e ctable.Lit, xAssigned bool) float64 {
	v := e.X
	if !xAssigned {
		v = e.Y
	}
	if s.stEffVer[ei] == s.stVarVer[v] && s.stEffX[ei] == xAssigned {
		return s.stEffP[ei]
	}
	p := s.exprProb(s.stEffLit(e))
	s.stEffVer[ei] = s.stVarVer[v]
	s.stEffX[ei] = xAssigned
	s.stEffP[ei] = p
	return p
}

// stDirectProb is the paper's direct rule over live literals: if every
// effective variable occurs exactly once, the probability follows from
// the independent-conjunction and general-disjunction rules, computed in
// clause and literal order. The repeated-variable check and the product
// run as one fused pass: a detected repeat discards the partial product.
// Factors come from the per-literal memos (stProbUn, stEffHalf).
func (s *solver) stDirectProb(residual []int32) (float64, bool) {
	s.epoch++
	p := 1.0
	for _, c := range residual {
		qAllFalse := 1.0
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			e := s.stExprs[ei]
			if e.Kind == ctable.VarGTVar {
				if s.assign[e.X] >= 0 {
					if s.seenEp[e.Y] == s.epoch {
						return 0, false
					}
					s.seenEp[e.Y] = s.epoch
					qAllFalse *= 1 - s.stEffHalf(ei, e, true)
					continue
				}
				if s.assign[e.Y] >= 0 {
					if s.seenEp[e.X] == s.epoch {
						return 0, false
					}
					s.seenEp[e.X] = s.epoch
					qAllFalse *= 1 - s.stEffHalf(ei, e, false)
					continue
				}
				// Marking x before testing y rejects a degenerate x > x.
				if s.seenEp[e.X] == s.epoch {
					return 0, false
				}
				s.seenEp[e.X] = s.epoch
				if s.seenEp[e.Y] == s.epoch {
					return 0, false
				}
				s.seenEp[e.Y] = s.epoch
				qAllFalse *= 1 - s.stProbUn(ei, e)
				continue
			}
			if s.seenEp[e.X] == s.epoch {
				return 0, false
			}
			s.seenEp[e.X] = s.epoch
			qAllFalse *= 1 - s.stProbUn(ei, e)
		}
		p *= 1 - qAllFalse
	}
	return p, true
}

// stComponents splits a clause-index list into connected components:
// union-find over residual positions claimed through effective
// variables, with the single-component fast path reported as (nil, true).
// Group order is the root-appearance order of the residual scan and
// members keep residual order, as in components. The parent, group and
// bucket tables are carved from the arena, which the caller
// truncates.
func (s *solver) stComponents(residual []int32) ([][]int32, bool) {
	n := len(residual)
	pbase := len(s.stIdx)
	for i := 0; i < n; i++ {
		s.stIdx = append(s.stIdx, int32(i))
	}
	parent := s.stIdx[pbase:len(s.stIdx)]
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}

	s.epoch++
	var pos int32
	claim := func(v int32) {
		if s.ownerEp[v] == s.epoch {
			ra, rb := find(int32(s.owner[v])), find(pos)
			if ra != rb {
				parent[ra] = rb
			}
			return
		}
		s.ownerEp[v] = s.epoch
		s.owner[v] = int(pos)
	}
	for i, c := range residual {
		pos = int32(i)
		for ei := s.stClauseOff[c]; ei < s.stClauseOff[c+1]; ei++ {
			if s.stLitDead(ei) {
				continue
			}
			s.stVisitEff(s.stExprs[ei], claim)
		}
	}

	root := find(0)
	single := true
	for i := int32(1); i < int32(n); i++ {
		if find(i) != root {
			single = false
			break
		}
	}
	if single {
		s.stIdx = s.stIdx[:pbase]
		return nil, true
	}

	gbase := len(s.stIdx)
	for i := 0; i < n; i++ {
		s.stIdx = append(s.stIdx, 0)
	}
	groupOf := s.stIdx[gbase:len(s.stIdx)]
	nG := int32(0)
	for i := int32(0); i < int32(n); i++ {
		if find(i) == i {
			groupOf[i] = nG
			nG++
		}
	}

	szbase := len(s.stIdx)
	for g := int32(0); g < nG; g++ {
		s.stIdx = append(s.stIdx, 0)
	}
	sizes := s.stIdx[szbase:len(s.stIdx)]
	for i := int32(0); i < int32(n); i++ {
		sizes[groupOf[find(i)]]++
	}
	bbase := len(s.stIdx)
	for i := 0; i < n; i++ {
		s.stIdx = append(s.stIdx, 0)
	}
	block := s.stIdx[bbase:len(s.stIdx)]
	groups := make([][]int32, nG)
	off := int32(0)
	for g := range groups {
		end := off + sizes[g]
		groups[g] = block[off:off:end]
		off = end
	}
	for i, c := range residual {
		g := groupOf[find(int32(i))]
		groups[g] = append(groups[g], c)
	}
	return groups, false
}
