package prob

import (
	"encoding/binary"

	"bayescrowd/internal/ctable"
)

// Component keys. A connected clause component's probability is a pure
// function of its expression structure and the distributions of its
// variables, so it can be memoized under a key that captures both. The
// structure arrives precomputed: ctable stores every component's
// canonical clause order — Expr.Compare's, which compares variables by
// (Obj, Attr) — and its structural hash, FNV-1a over the canonical
// encoding (ctable.StructHash). The solver branches on exactly that
// canonical order, so the memoized value is a pure function of the
// structure, bit for bit, whatever clause order this occurrence arrived
// in. A probe that adds a unit clause merges it into the touched
// component's canonical order and hashes the merge afresh; nothing else
// is sorted or hashed per evaluation.
//
// The distributions enter as their narrowing: one mark per variable, in
// the canonical component's first-appearance order — base distribution,
// or the interval it was narrowed to (Evaluator.Narrow, VarState). The
// two marks stay distinct even for an interval spanning the whole
// domain, whose renormalised slice need not be bit-equal to the base.
// Every entry is then a pure function of its key and the base
// distributions.
//
// The cache key is 64 bits: the structural hash with the narrowing marks
// and the entry's domain — a scalar component probability, or a sweep
// vector and its swept variable — mixed in. Since 64 bits can collide,
// every entry also stores its shape: the component's variables, its
// canonical structure over their first-appearance positions, the domain
// and the narrowing marks, as bytes. A hit needs the key and the shape
// to match, so a collision costs a comparison, never a wrong
// probability. Structure, shape and variables all speak of
// (Obj, Attr), never of evaluator or table ids, so keys survive a stream
// window renumbering its variables.

// Entry domains: component probabilities and joint-marginal sweep
// vectors live in disjoint key spaces, so the two kinds never alias
// even though a sweep key is a component key plus a variable.
const (
	domainScalar = 0
	domainSweep  = 1
)

// structHashHook, when set, replaces every structural hash before it
// enters a cache key. Tests set it to force collisions; it is nil
// otherwise.
var structHashHook func(uint64) uint64

// keyed returns the probability of a branched component laid out in
// canonical order, whose structural hash is h: a cache hit, or a solve —
// the approximate estimator past Options.ApproxThreshold variables, the
// compiled engine otherwise — memoized when cache is non-nil. A nil
// cache changes only whether the value is looked up, never the
// arithmetic, which is what makes cached and uncached evaluation
// bit-identical.
//
// The approximate estimator is seeded from h, so both the fallback
// decision and the estimate are pure functions of the component —
// identical at any worker count, schedule and cache state.
func (s *solver) keyed(clauses [][]ctable.Lit, h uint64, cache *ComponentCache) float64 {
	vars := s.firstVars(clauses)
	var key uint64
	var shape []byte
	if cache != nil {
		key = entryKey(s.narrowedHash(h, vars), domainScalar, 0)
		shape = entryShape(s.shape(clauses, vars), domainScalar, 0)
		if p, _, ok := s.lookup(cache, key, shape); ok {
			return p
		}
	}
	var p float64
	if s.opt.ApproxThreshold > 0 && len(vars) > s.opt.ApproxThreshold {
		p = s.approxComponent(clauses, h)
	} else {
		p = s.stSolve(clauses)
	}
	if cache != nil {
		s.store(cache, key, &cacheEntry{p: p, shape: string(shape)})
	}
	return p
}

// structHash returns the structural hash of a laid-out clause list in
// canonical order (ctable.StructHash).
func (s *solver) structHash(clauses [][]ctable.Lit) uint64 {
	h := ctable.NewStructHash()
	for _, cl := range clauses {
		h = h.Clause(len(cl))
		for _, l := range cl {
			h = h.Expr(s.exprOf(l))
		}
	}
	return uint64(h)
}

// exprOf returns a literal over the solver's ids as an expression.
func (s *solver) exprOf(l ctable.Lit) ctable.Expr {
	e := ctable.Expr{Kind: l.Kind, X: s.vars[l.X]}
	if l.Kind == ctable.VarGTVar {
		e.Y = s.vars[l.Y]
	} else {
		e.C = int(l.C)
	}
	return e
}

// firstVars returns the distinct variables of the clauses in order of
// first appearance, in scratch reused across calls, and records each
// one's position in s.pos.
func (s *solver) firstVars(clauses [][]ctable.Lit) []int32 {
	s.epoch++
	out := s.satVars[:0]
	note := func(v int32) {
		if s.seenEp[v] != s.epoch {
			s.seenEp[v] = s.epoch
			s.pos[v] = int32(len(out))
			out = append(out, v)
		}
	}
	for _, cl := range clauses {
		for _, e := range cl {
			note(e.X)
			if e.Y >= 0 {
				note(e.Y)
			}
		}
	}
	s.satVars = out
	return out
}

// narrowedHash mixes the narrowing marks of vars (the component's
// variables in first-appearance order, as firstVars lists them) into
// the structural hash h.
func (s *solver) narrowedHash(h uint64, vars []int32) uint64 {
	if structHashHook != nil {
		h = structHashHook(h)
	}
	for i, v := range vars {
		if s.narrowed[v] {
			iv := s.narrow[v]
			h = mix(mix(h, uint64(i)+1), uint64(uint32(iv.Lo))<<32|uint64(uint32(iv.Hi)))
		}
	}
	return h
}

// entryKey is the cache key of the entry of a component whose
// narrowedHash is h, in a domain, with a swept position.
func entryKey(h uint64, domain, sweep int) uint64 {
	return mix(h, uint64(domain)<<32|uint64(sweep))
}

// mix folds w into h.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>29
}

// shape encodes the component a key stands for, in scratch reused
// across calls: its variables in first-appearance order (their count,
// then each one's Obj and Attr as varints), the clause count, each
// clause's length and its literals (kind, then the first-appearance
// positions of the variables or the constant), and a narrowing mark per
// variable — 0 for the base distribution, 1 and the interval for a
// narrowed one. With the entry's domain and swept position appended
// (entryShape), the encoding determines the keyed quantity exactly.
func (s *solver) shape(clauses [][]ctable.Lit, vars []int32) []byte {
	b := binary.AppendUvarint(s.shapeBuf[:0], uint64(len(vars)))
	for _, v := range vars {
		x := s.vars[v]
		b = binary.AppendVarint(binary.AppendVarint(b, int64(x.Obj)), int64(x.Attr))
	}
	b = binary.AppendUvarint(b, uint64(len(clauses)))
	for _, cl := range clauses {
		b = binary.AppendUvarint(b, uint64(len(cl)))
		for _, l := range cl {
			b = append(b, byte(l.Kind))
			b = binary.AppendUvarint(b, uint64(s.pos[l.X]))
			if l.Kind == ctable.VarGTVar {
				b = binary.AppendUvarint(b, uint64(s.pos[l.Y]))
			} else {
				b = binary.AppendVarint(b, int64(l.C))
			}
		}
	}
	for _, v := range vars {
		if !s.narrowed[v] {
			b = append(b, 0)
			continue
		}
		iv := s.narrow[v]
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(iv.Lo))
		b = binary.AppendVarint(b, int64(iv.Hi))
	}
	s.shapeBuf = b
	return b
}

// entryShape appends an entry's domain and swept position to a
// component's shape, in place.
func entryShape(shape []byte, domain, sweep int) []byte {
	return binary.AppendUvarint(append(shape, byte(domain)), uint64(sweep))
}

// shapeMentions reports whether a shape's variables include one dead
// reports.
func shapeMentions(shape string, dead func(ctable.Var) bool) bool {
	n, i := uvarintAt(shape, 0)
	for ; n > 0; n-- {
		var obj, attr uint64
		obj, i = uvarintAt(shape, i)
		attr, i = uvarintAt(shape, i)
		if dead(ctable.Var{Obj: int(unzigzag(obj)), Attr: int(unzigzag(attr))}) {
			return true
		}
	}
	return false
}

// uvarintAt decodes the uvarint at s[i:] and returns it and the index
// past it.
func uvarintAt(s string, i int) (uint64, int) {
	var u uint64
	for shift := 0; ; shift += 7 {
		b := s[i]
		i++
		u |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return u, i
		}
	}
}

// unzigzag undoes binary.AppendVarint's zig-zag mapping.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// lookup consults the cache, counting the outcome for the evaluator.
func (s *solver) lookup(cache *ComponentCache, key uint64, shape []byte) (p float64, vec []float64, ok bool) {
	p, vec, ok = cache.lookup(key, shape)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return p, vec, ok
}

// store memoizes e under key, counting the evictions it caused for the
// evaluator.
func (s *solver) store(cache *ComponentCache, key uint64, e *cacheEntry) {
	e.key = key
	s.evicted += uint64(cache.store(e))
}
