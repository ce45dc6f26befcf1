package ctable

import (
	"strings"
)

// Condition is an object's c-table condition φ(o): either the constant
// true/false or a CNF formula — a conjunction of clauses, each clause a
// disjunction of expressions (paper §4.1).
type Condition struct {
	decided bool
	value   bool
	// Clauses is the CNF body when the condition is undecided. Every
	// clause is non-empty; an empty clause collapses the condition to
	// false and an empty clause list to true during construction and
	// simplification.
	Clauses [][]Expr
}

// True returns the decided-true condition (o is certainly a skyline
// answer).
func True() *Condition { return &Condition{decided: true, value: true} }

// False returns the decided-false condition.
func False() *Condition { return &Condition{decided: true, value: false} }

// FromClauses builds a condition from CNF clauses, collapsing trivial
// cases: an empty clause yields false, no clauses yields true.
func FromClauses(clauses [][]Expr) *Condition {
	for _, cl := range clauses {
		if len(cl) == 0 {
			return False()
		}
	}
	if len(clauses) == 0 {
		return True()
	}
	return &Condition{Clauses: clauses}
}

// Decided reports whether the condition is settled, and its value.
func (c *Condition) Decided() (value, decided bool) { return c.value, c.decided }

// IsTrue reports whether the condition is decided true.
func (c *Condition) IsTrue() bool { return c.decided && c.value }

// IsFalse reports whether the condition is decided false.
func (c *Condition) IsFalse() bool { return c.decided && !c.value }

// Clone returns a deep copy.
func (c *Condition) Clone() *Condition {
	out := &Condition{decided: c.decided, value: c.value}
	if c.Clauses != nil {
		out.Clauses = make([][]Expr, len(c.Clauses))
		for i, cl := range c.Clauses {
			out.Clauses[i] = append([]Expr(nil), cl...)
		}
	}
	return out
}

// Vars returns the distinct variables mentioned by the condition.
func (c *Condition) Vars() []Var {
	seen := map[Var]bool{}
	var out []Var
	var buf []Var
	for _, cl := range c.Clauses {
		for _, e := range cl {
			buf = e.Vars(buf[:0])
			for _, v := range buf {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	return out
}

// Mentions reports whether a literal of the condition mentions a
// variable in — a scan of the literals in place, where Vars would
// allocate the distinct set first. A decided condition mentions nothing.
func (c *Condition) Mentions(in func(Var) bool) bool {
	for _, cl := range c.Clauses {
		for _, e := range cl {
			if in(e.X) || (e.Kind == VarGTVar && in(e.Y)) {
				return true
			}
		}
	}
	return false
}

// NumExprs returns the total number of expressions across clauses.
func (c *Condition) NumExprs() int {
	n := 0
	for _, cl := range c.Clauses {
		n += len(cl)
	}
	return n
}

// Exprs returns the distinct expressions of the condition in clause order.
func (c *Condition) Exprs() []Expr {
	seen := map[Expr]bool{}
	var out []Expr
	for _, cl := range c.Clauses {
		for _, e := range cl {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
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
// result is a fresh condition sharing every clause slice that did not
// change — so one condition can back many readers, each simplifying it
// under its own knowledge.
func (c *Condition) Simplified(k *Knowledge) *Condition { return c.SimplifiedWhere(k, nil) }

// SimplifiedWhere is Simplified evaluating only the expressions affected
// selects (every expression when affected is nil) and keeping the rest as
// undecided. Knowledge.Eval reads only an expression's own variables, and
// an answer changes only the variables it mentions, so when c was
// already simplified under the knowledge as it stood before some answers
// — a fixed point of it — and affected selects every expression that
// mentions a variable those answers mentioned, the result is
// Simplified(k) clause for clause, at the cost of evaluating the
// expressions that can have changed.
func (c *Condition) SimplifiedWhere(k *Knowledge, affected func(Expr) bool) *Condition {
	if c.decided {
		return c
	}
	var out [][]Expr // nil until the first clause that changes
	for i, cl := range c.Clauses {
		kept, satisfied, changed := simplifyClause(cl, k, affected)
		if !changed {
			if out != nil {
				out = append(out, cl)
			}
			continue
		}
		if out == nil {
			out = append(make([][]Expr, 0, len(c.Clauses)), c.Clauses[:i]...)
		}
		if satisfied {
			continue
		}
		if len(kept) == 0 {
			return False()
		}
		out = append(out, kept)
	}
	if out == nil {
		return c
	}
	if len(out) == 0 {
		return True()
	}
	return &Condition{Clauses: out}
}

// simplifyClause rewrites one clause under the knowledge, evaluating the
// expressions affected selects (all when nil): satisfied when an
// expression is decided true, otherwise kept holds the expressions not
// decided false. An unchanged clause comes back as itself; a changed
// one is a fresh slice, so cl is never written.
func simplifyClause(cl []Expr, k *Knowledge, affected func(Expr) bool) (kept []Expr, satisfied, changed bool) {
	for j, e := range cl {
		var v, decided bool
		if affected == nil || affected(e) {
			v, decided = k.Eval(e)
		}
		switch {
		case decided && v:
			return nil, true, true
		case decided:
			if !changed {
				changed = true
				kept = append(make([]Expr, 0, len(cl)-1), cl[:j]...)
			}
		case changed:
			kept = append(kept, e)
		}
	}
	if !changed {
		return cl, false, false
	}
	return kept, false, true
}

// EvalAssign evaluates the condition under a complete assignment of its
// variables. It panics via Expr.EvalAssign semantics being undecided only
// if a referenced variable is unassigned, in which case decided is false.
func (c *Condition) EvalAssign(assign map[Var]int) (value, decided bool) {
	if c.decided {
		return c.value, true
	}
	for _, cl := range c.Clauses {
		clauseVal := false
		for _, e := range cl {
			v, ok := e.EvalAssign(assign)
			if !ok {
				return false, false
			}
			if v {
				clauseVal = true
				break
			}
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
	var parts []string
	for _, cl := range c.Clauses {
		var exprs []string
		for _, e := range cl {
			exprs = append(exprs, e.String())
		}
		s := strings.Join(exprs, " ∨ ")
		if len(c.Clauses) > 1 && len(cl) > 1 {
			s = "[" + s + "]"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ∧ ")
}
