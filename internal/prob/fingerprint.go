package prob

import (
	"encoding/binary"
	"slices"

	"bayescrowd/internal/ctable"
)

// Component fingerprints. A connected clause component's probability is a
// pure function of its expression structure and the distributions of its
// variables, so it can be memoized under a canonical encoding: sort the
// expressions of each clause, then the clauses themselves, by the stable
// total order of ctable.Expr.Compare, and concatenate the stable binary
// encodings (ctable.Expr.AppendKey) with a per-clause length prefix. The
// sort runs in place, so after fingerprinting the component is in
// canonical order and the solver branches on exactly the clause order the
// key describes — the memoized value is a pure function of the key, bit
// for bit, regardless of the clause order this particular occurrence
// arrived in.
//
// The sort compares the variables' evaluator ids (Evaluator.IDs) instead
// of rebuilding ctable.Exprs. Ids follow (Obj, Attr) order, so each
// comparison has the sign Expr.Compare gives, and the sort permutes the
// clauses exactly as an Expr sort would.
//
// The distributions enter the key as their narrowing: after the
// structural key comes one mark per variable, in the canonical
// component's first-appearance order — narrowMarkBase for a variable at
// its base distribution, or narrowMarkInterval and the interval it was
// narrowed to (Evaluator.Narrow, VarState). The two marks stay
// distinct even for an interval spanning the whole domain, whose
// renormalised slice need not be bit-equal to the base. Every entry is
// then a pure function of its key and the base distributions.

// realExpr reconstructs the caller-level expression of an interned one,
// using the solver's reverse variable table.
func (s *solver) realExpr(e cexpr) ctable.Expr {
	if e.kind == ctable.VarGTVar {
		return ctable.Expr{Kind: e.kind, X: s.vars[e.x], Y: s.vars[e.y]}
	}
	return ctable.Expr{Kind: e.kind, X: s.vars[e.x], C: int(e.c)}
}

// cmpExpr orders interned expressions as ctable.Expr.Compare orders
// their real forms, comparing evaluator ids.
func (s *solver) cmpExpr(a, b cexpr) int {
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	if d := s.gids[a.x] - s.gids[b.x]; d != 0 {
		return int(d)
	}
	if a.kind == ctable.VarGTVar {
		return int(s.gids[a.y] - s.gids[b.y])
	}
	return int(a.c) - int(b.c)
}

func (s *solver) cmpClause(a, b []cexpr) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := s.cmpExpr(a[i], b[i]); c != 0 {
			return c
		}
	}
	return len(a) - len(b)
}

// Key domain prefixes: scalar component-probability entries and joint
// marginal sweep-vector entries live in disjoint key spaces, so the
// two kinds can never alias even though sweep keys are a component key
// plus a variable suffix.
const (
	scalarKeyPrefix = 'P'
	sweepKeyPrefix  = 'S'
)

// Narrowing marks of the key suffix.
const (
	narrowMarkBase     = 0
	narrowMarkInterval = 1
)

// fingerprint sorts the component into canonical order (in place — the
// clause slices are newSolverGroups' per-evaluation interned copies,
// never caller-owned conditions) and returns its cache key under the
// given domain prefix, with the narrowing suffix. key[:structLen] is the
// structural key alone. The key
// aliases solver scratch: it is valid until the next fingerprint call and
// must be copied to be retained (ComponentCache does so on store).
func (s *solver) fingerprint(comp [][]cexpr, prefix byte) (key []byte, structLen int) {
	for _, cl := range comp {
		slices.SortFunc(cl, s.cmpExpr)
	}
	slices.SortFunc(comp, s.cmpClause)
	key = append(s.keyBuf[:0], prefix)
	for _, cl := range comp {
		key = binary.AppendUvarint(key, uint64(len(cl)))
		for _, e := range cl {
			key = s.realExpr(e).AppendKey(key)
		}
	}
	structLen = len(key)
	for _, id := range s.firstVars(comp) {
		if !s.narrowed[id] {
			key = append(key, narrowMarkBase)
			continue
		}
		key = append(key, narrowMarkInterval)
		key = binary.AppendVarint(key, int64(s.narrow[id].Lo))
		key = binary.AppendVarint(key, int64(s.narrow[id].Hi))
	}
	s.keyBuf = key
	return key, structLen
}

// firstVars returns the distinct variables of the clauses in order of
// first appearance, in scratch reused across calls.
func (s *solver) firstVars(clauses [][]cexpr) []int32 {
	s.epoch++
	out := s.satVars[:0]
	for _, cl := range clauses {
		for _, e := range cl {
			if s.seenEp[e.x] != s.epoch {
				s.seenEp[e.x] = s.epoch
				out = append(out, e.x)
			}
			if e.y >= 0 && s.seenEp[e.y] != s.epoch {
				s.seenEp[e.y] = s.epoch
				out = append(out, e.y)
			}
		}
	}
	s.satVars = out
	return out
}

// componentVars returns the distinct variables of the component in
// order of first appearance, in scratch reused across calls: clone it to
// retain it.
func (s *solver) componentVars(comp [][]cexpr) []ctable.Var {
	out := s.varsBuf[:0]
	for _, id := range s.firstVars(comp) {
		out = append(out, s.vars[id])
	}
	s.varsBuf = out
	return out
}
