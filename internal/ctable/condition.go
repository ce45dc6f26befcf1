package ctable

import (
	"strings"
)

// Condition is an object's c-table condition φ(o): either the constant
// true/false or a CNF formula — a conjunction of clauses, each clause a
// disjunction of expressions (paper §4.1).
//
// An undecided condition stores its CNF once, in the compact form
// form.go describes: a variable table and the literals in build order
// over it, shared with every simplification of the same build, plus the
// condition's own live clauses, dropped literals and connected
// components with their canonical orders and structural hashes. The
// c-tables emit a condition's clauses from the objects' cells straight
// into that form (build.go's emitter), never as [][]Expr. Every
// clause is non-empty; an empty clause collapses the condition to false
// and an empty clause list to true during construction and
// simplification. A condition is immutable once built, so one condition
// can back many readers.
type Condition struct {
	decided bool
	value   bool
	// ident reports that the live clauses are every build clause, in
	// order, so own does not list them.
	ident bool
	// Shared with every simplification of the build, read-only: the
	// variable table; the literals in build order over it; and base —
	// the end of each of the nb build clauses in lits, then, for literal
	// j, the position within its clause of the clause's j-th literal in
	// canonical order.
	vars []Var
	lits []Lit
	base []int32
	nb   int32
	// The condition's own, one allocation (see form.go's views): its nc
	// live clauses as build clauses, in build order; its ng components,
	// each with its clauses (by index into the live clauses) in
	// canonical order, its structural hash and direct flag; the
	// component of each table variable, -1 for one the condition no
	// longer mentions; and, from deadAt on, a bit per dropped build
	// literal, none when no literal is dropped. nLits counts the live
	// literals.
	own    []int32
	nc, ng int32
	deadAt int32
	nLits  int32
}

// True returns the decided-true condition (o is certainly a skyline
// answer).
func True() *Condition { return &Condition{decided: true, value: true} }

// False returns the decided-false condition.
func False() *Condition { return &Condition{decided: true, value: false} }

// FromClauses builds a condition from CNF clauses, collapsing trivial
// cases: an empty clause yields false, no clauses yields true. The
// clauses are copied into the stored form; the caller keeps them. The
// c-table builds emit conditions from the objects' cells instead; this
// is the reference form tests derive conditions from.
func FromClauses(clauses [][]Expr) *Condition {
	f := formPool.Get().(*form)
	defer formPool.Put(f)
	f.start(nil, 0, nil, nil)
	for _, cl := range clauses {
		if len(cl) == 0 {
			return False()
		}
		f.exprs = append(f.exprs, cl...)
		f.ends = append(f.ends, int32(len(f.exprs)))
	}
	return f.condition()
}

// Decided reports whether the condition is settled, and its value.
func (c *Condition) Decided() (value, decided bool) { return c.value, c.decided }

// IsTrue reports whether the condition is decided true.
func (c *Condition) IsTrue() bool { return c.decided && c.value }

// IsFalse reports whether the condition is decided false.
func (c *Condition) IsFalse() bool { return c.decided && !c.value }

// Clone returns a deep copy.
func (c *Condition) Clone() *Condition {
	return &Condition{
		decided: c.decided, value: c.value, ident: c.ident,
		vars: clone(c.vars), lits: clone(c.lits), base: clone(c.base), nb: c.nb,
		own: clone(c.own), nc: c.nc, ng: c.ng, deadAt: c.deadAt, nLits: c.nLits,
	}
}

// clone copies s, keeping nil nil.
func clone[T any](s []T) []T {
	if s == nil {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// Vars returns the distinct variables of the condition in order of first
// appearance. For a freshly built condition it is the variable table
// itself, shared and read-only; a simplification, whose table may hold
// variables it no longer mentions, lists them afresh.
func (c *Condition) Vars() []Var {
	if c.ident && len(c.dead()) == 0 {
		return c.vars
	}
	var out []Var
	seen := make([]bool, len(c.vars))
	note := func(v int32) {
		if !seen[v] {
			seen[v] = true
			out = append(out, c.vars[v])
		}
	}
	for i := 0; i < int(c.nc); i++ {
		lo, hi := c.span(i)
		for j := lo; j < hi; j++ {
			if l := c.lits[j]; c.live(j) {
				note(l.X)
				if l.Y >= 0 {
					note(l.Y)
				}
			}
		}
	}
	return out
}

// Table returns the variable table the condition's literals index
// (AppendClause, AppendCanonClause): Vars for a freshly built
// condition, a superset of them for a simplification. The slice
// is shared and read-only.
func (c *Condition) Table() []Var { return c.vars }

// VarIndex returns v's index in the variable table, or false when the
// condition does not mention v. It scans the table.
func (c *Condition) VarIndex(v Var) (int, bool) {
	for i, x := range c.vars {
		if x == v && c.varComp()[i] >= 0 {
			return i, true
		}
	}
	return -1, false
}

// VarComponent returns the component of table variable i, or -1 when
// the condition no longer mentions it.
func (c *Condition) VarComponent(i int) int { return int(c.varComp()[i]) }

// Mentions reports whether the condition mentions a variable in — a scan
// of its variable table, each variable once. A decided condition
// mentions nothing.
func (c *Condition) Mentions(in func(Var) bool) bool {
	comp := c.varComp()
	for i, v := range c.vars {
		if comp[i] >= 0 && in(v) {
			return true
		}
	}
	return false
}

// NumExprs returns the total number of expressions across clauses.
func (c *Condition) NumExprs() int { return int(c.nLits) }

// AppendExprs appends every expression of the condition to dst in build
// order — clause by clause, each clause's in the order it was built
// with, repeats included — and returns the extended slice.
func (c *Condition) AppendExprs(dst []Expr) []Expr {
	for i := 0; i < int(c.nc); i++ {
		lo, hi := c.span(i)
		for j := lo; j < hi; j++ {
			if c.live(j) {
				dst = append(dst, c.exprOf(c.lits[j]))
			}
		}
	}
	return dst
}

// exprOf returns a literal over the table as an expression.
func (c *Condition) exprOf(l Lit) Expr {
	e := Expr{Kind: l.Kind, X: c.vars[l.X]}
	if l.Kind == VarGTVar {
		e.Y = c.vars[l.Y]
	} else {
		e.C = int(l.C)
	}
	return e
}

// NumClauses returns the number of clauses.
func (c *Condition) NumClauses() int { return int(c.nc) }

// AppendClause appends clause i's literals to dst in build order and
// returns the extended slice.
func (c *Condition) AppendClause(dst []Lit, i int) []Lit {
	lo, hi := c.span(i)
	for j := lo; j < hi; j++ {
		if c.live(j) {
			dst = append(dst, c.lits[j])
		}
	}
	return dst
}

// AppendCanonClause appends clause i's literals to dst in canonical
// order and returns the extended slice.
func (c *Condition) AppendCanonClause(dst []Lit, i int) []Lit {
	lo, hi := c.span(i)
	for _, p := range c.orders()[lo:hi] {
		if c.live(lo + p) {
			dst = append(dst, c.lits[lo+p])
		}
	}
	return dst
}

// NumComponents returns the number of connected components; they are
// numbered in order of their last clause.
func (c *Condition) NumComponents() int { return int(c.ng) }

// Component returns a view of component g. Its slices are read-only.
func (c *Condition) Component(g int) Component {
	off := c.offs()
	return Component{Canon: c.canon()[off[g]:off[g+1]], Hash: c.compHash(g), Direct: c.meta()[3*g+2] != 0}
}

// compHash returns component g's structural hash.
func (c *Condition) compHash(g int) uint64 {
	m := c.meta()
	return uint64(uint32(m[3*g]))<<32 | uint64(uint32(m[3*g+1]))
}

// Exprs returns the distinct expressions of the condition in clause order.
func (c *Condition) Exprs() []Expr {
	seen := map[Expr]bool{}
	var out []Expr
	for _, e := range c.AppendExprs(nil) {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// Clauses returns the CNF body in build order, as fresh slices the
// caller owns; nil for a decided condition.
func (c *Condition) Clauses() [][]Expr {
	if c.decided {
		return nil
	}
	out := make([][]Expr, c.nc)
	var buf []Lit
	for i := range out {
		buf = c.AppendClause(buf[:0], i)
		out[i] = make([]Expr, len(buf))
		for k, l := range buf {
			out[i][k] = c.exprOf(l)
		}
	}
	return out
}

// Simplified returns the condition rewritten under the given knowledge:
// expressions decided false are dropped from their clause, a clause with
// a decided-true expression is satisfied and removed, an emptied clause
// decides the condition false, and an emptied clause list decides it
// true. It never writes to the receiver. A decided receiver, or one in
// which no expression is decided, comes back as itself; otherwise the
// result is a fresh condition sharing the receiver's build, which
// carries over every component none of whose clauses changed and
// derives the rest afresh.
func (c *Condition) Simplified(k *Knowledge) *Condition { return c.SimplifiedWhere(k, nil) }

// SimplifiedWhere is Simplified evaluating only the literals on a
// variable whose id under k's numbering is in touched (every literal
// when touched is nil) and keeping the rest as undecided; a condition
// that mentions no touched variable comes back as itself at once.
// Knowledge.Eval reads only a literal's own variables, and an answer
// changes only the variables it mentions, so when c was already
// simplified under the knowledge as it stood before some answers — a
// fixed point of it — and touched holds every variable those answers
// mentioned, the result is Simplified(k) clause for clause, at the cost
// of evaluating the literals that can have changed.
func (c *Condition) SimplifiedWhere(k *Knowledge, touched *IDSet) *Condition {
	if c.decided {
		return c
	}
	f := formPool.Get().(*form)
	defer formPool.Put(f)
	if !f.mark(c, k, touched) {
		return c
	}
	f.state = fit(f.state, int(c.nc))
	f.drop = fit(f.drop, len(c.lits))
	changed, kept := false, false
	for i := 0; i < int(c.nc); i++ {
		st := f.clauseState(c, i, k)
		if st == clauseEmptied {
			return False()
		}
		f.state[i] = st
		changed = changed || st != clauseKept
		kept = kept || st != clauseSatisfied
	}
	switch {
	case !changed:
		return c
	case !kept:
		return True()
	}
	return f.simplified(c)
}

// EvalAssign evaluates the condition under a complete assignment of its
// variables. It panics via Expr.EvalAssign semantics being undecided only
// if a referenced variable is unassigned, in which case decided is false.
func (c *Condition) EvalAssign(assign map[Var]int) (value, decided bool) {
	if c.decided {
		return c.value, true
	}
	for i := 0; i < int(c.nc); i++ {
		clauseVal := false
		lo, hi := c.span(i)
		for j := lo; j < hi && !clauseVal; j++ {
			if !c.live(j) {
				continue
			}
			v, ok := c.exprOf(c.lits[j]).EvalAssign(assign)
			if !ok {
				return false, false
			}
			clauseVal = v
		}
		if !clauseVal {
			return false, true
		}
	}
	return true, true
}

// String renders the condition in the paper's Table 3 style.
func (c *Condition) String() string {
	if c.decided {
		if c.value {
			return "true"
		}
		return "false"
	}
	clauses := c.Clauses()
	parts := make([]string, len(clauses))
	for i, cl := range clauses {
		exprs := make([]string, len(cl))
		for k, e := range cl {
			exprs[k] = e.String()
		}
		s := strings.Join(exprs, " ∨ ")
		if len(clauses) > 1 && len(cl) > 1 {
			s = "[" + s + "]"
		}
		parts[i] = s
	}
	return strings.Join(parts, " ∧ ")
}
