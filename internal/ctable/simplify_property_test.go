package ctable

import (
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/dataset"
)

// TestSimplifyPreservesSemantics is the soundness property of condition
// simplification: for every full variable assignment *consistent with the
// accumulated knowledge*, the simplified condition evaluates exactly like
// the original. Knowledge here is produced the way the framework produces
// it — by absorbing answers that are true under a hidden ground
// assignment — so consistency is guaranteed by construction.
func TestSimplifyPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 200; trial++ {
		const levels = 4
		nVars := 2 + rng.Intn(4)
		attrs := make([]dataset.Attribute, 1)
		attrs[0] = dataset.Attribute{Name: "a", Levels: levels}
		schema := dataset.New(attrs)

		vars := make([]Var, nVars)
		for i := range vars {
			vars[i] = Var{Obj: i, Attr: 0}
		}

		// Hidden ground assignment the "crowd" answers from.
		ground := map[Var]int{}
		for _, v := range vars {
			ground[v] = rng.Intn(levels)
		}

		orig := randomCNF(rng, vars, levels)
		if _, decided := orig.Decided(); decided {
			continue
		}

		// Absorb a few truthful answers about random expressions.
		know := NewKnowledge(schema, gridIDs(len(vars)+2, schema.NumAttrs()))
		exprs := orig.Exprs()
		for k := 0; k < 1+rng.Intn(3); k++ {
			e := exprs[rng.Intn(len(exprs))]
			if err := know.Absorb(e, relUnder(ground, e)); err != nil {
				t.Fatalf("trial %d: truthful answer conflicted: %v", trial, err)
			}
		}

		simplified := orig.Simplified(know)

		// Check every assignment consistent with the knowledge.
		assign := map[Var]int{}
		var rec func(i int)
		rec = func(i int) {
			if i == nVars {
				if !consistent(know, orig, assign) {
					return
				}
				wantV, wantD := orig.EvalAssign(assign)
				gotV, gotD := simplified.EvalAssign(assign)
				if !wantD || !gotD {
					t.Fatalf("trial %d: undecided under full assignment", trial)
				}
				if gotV != wantV {
					t.Fatalf("trial %d: assignment %v: original=%v simplified=%v\norig: %v\nsimp: %v",
						trial, assign, wantV, gotV, orig, simplified)
				}
				return
			}
			for val := 0; val < levels; val++ {
				assign[vars[i]] = val
				rec(i + 1)
			}
			delete(assign, vars[i])
		}
		rec(0)
	}
}

// TestSimplifiedCopyOnChange pins Simplified's sharing contract on random
// CNFs and random knowledge, some of it about variables the condition
// never mentions: the result equals the original in-place rewrite (the
// reference below), the receiver is never written, and a condition the
// knowledge decides nothing of comes back as the receiver itself.
func TestSimplifiedCopyOnChange(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	const levels = 4
	schema := dataset.New([]dataset.Attribute{{Name: "a", Levels: levels}})
	unchanged := 0
	for trial := 0; trial < 500; trial++ {
		vars := make([]Var, 2+rng.Intn(4))
		for i := range vars {
			vars[i] = Var{Obj: i, Attr: 0}
		}
		orig := randomCNF(rng, vars, levels)

		// Answers about a wider variable set than the condition's, some
		// possibly contradicting each other (those are simply refused).
		know := NewKnowledge(schema, gridIDs(len(vars)+2, schema.NumAttrs()))
		others := append(vars, Var{Obj: len(vars), Attr: 0}, Var{Obj: len(vars) + 1, Attr: 0})
		for k := rng.Intn(4); k > 0; k-- {
			e := randomExpr(rng, others, levels)
			if err := know.Absorb(e, Rel(rng.Intn(3))); err != nil {
				continue // refused: the knowledge stays as it was
			}
		}

		snapshot := orig.Clone()
		got := orig.Simplified(know)
		if !reflect.DeepEqual(orig, snapshot) {
			t.Fatalf("trial %d: Simplified wrote to its receiver:\nbefore: %v\nafter:  %v", trial, snapshot, orig)
		}
		if want := simplifyInPlace(orig.Clone(), know); !sameForm(got, want) {
			t.Fatalf("trial %d: Simplified = %v, in-place reference = %v", trial, got, want)
		}
		if _, decided := orig.Decided(); decided || !anyDecided(orig, know) {
			unchanged++
			if got != orig {
				t.Fatalf("trial %d: nothing to simplify in %v, yet Simplified returned a copy", trial, orig)
			}
		}
	}
	if unchanged == 0 {
		t.Fatal("no trial left its condition unchanged; the receiver-identity property went unchecked")
	}
}

// randomCNF draws a CNF of one to four clauses over vars.
func randomCNF(rng *rand.Rand, vars []Var, levels int) *Condition {
	clauses := make([][]Expr, 1+rng.Intn(4))
	for c := range clauses {
		for k := 0; k < 1+rng.Intn(3); k++ { // bound redrawn per iteration
			clauses[c] = append(clauses[c], randomExpr(rng, vars, levels))
		}
	}
	return FromClauses(clauses)
}

// randomExpr draws one expression over vars: x<c, x>c, or x>y.
func randomExpr(rng *rand.Rand, vars []Var, levels int) Expr {
	x := vars[rng.Intn(len(vars))]
	switch rng.Intn(3) {
	case 0:
		return LTConst(x, 1+rng.Intn(levels))
	case 1:
		return GTConst(x, rng.Intn(levels-1))
	default:
		if y := vars[rng.Intn(len(vars))]; y != x {
			return GTVar(x, y)
		}
		return GTConst(x, 0)
	}
}

// simplifyInPlace is the reference semantics Simplified must match: the
// original rewrite that filtered each clause into its own backing array.
func simplifyInPlace(c *Condition, k *Knowledge) *Condition {
	if c.decided {
		return c
	}
	clauses := c.Clauses()
	outClauses := clauses[:0]
	for _, cl := range clauses {
		satisfied := false
		kept := cl[:0]
		for _, e := range cl {
			v, decided := k.Eval(e)
			switch {
			case decided && v:
				satisfied = true
			case decided && !v:
				// drop
			default:
				kept = append(kept, e)
			}
			if satisfied {
				break
			}
		}
		if satisfied {
			continue
		}
		if len(kept) == 0 {
			return False()
		}
		outClauses = append(outClauses, kept)
	}
	if len(outClauses) == 0 {
		return True()
	}
	return FromClauses(outClauses)
}

// anyDecided reports whether the knowledge decides any expression of c.
func anyDecided(c *Condition, k *Knowledge) bool {
	for _, cl := range c.Clauses() {
		for _, e := range cl {
			if _, decided := k.Eval(e); decided {
				return true
			}
		}
	}
	return false
}

// relUnder returns the true relation of e's operands under the ground
// assignment.
func relUnder(ground map[Var]int, e Expr) Rel {
	x := ground[e.X]
	y := e.C
	if e.Kind == VarGTVar {
		y = ground[e.Y]
	}
	switch {
	case x < y:
		return LT
	case x > y:
		return GT
	default:
		return EQ
	}
}

// consistent reports whether the assignment agrees with everything the
// knowledge asserts about the variables of the condition.
func consistent(k *Knowledge, c *Condition, assign map[Var]int) bool {
	for _, v := range c.Vars() {
		lo, hi := k.Bounds(v)
		if assign[v] < lo || assign[v] > hi {
			return false
		}
	}
	// Pairwise relations: evaluate each stored relation as an expression
	// against the assignment.
	for key, rel := range k.rel {
		x, ok1 := assign[key[0]]
		y, ok2 := assign[key[1]]
		if !ok1 || !ok2 {
			continue
		}
		switch rel {
		case LT:
			if !(x < y) {
				return false
			}
		case GT:
			if !(x > y) {
				return false
			}
		default:
			if x != y {
				return false
			}
		}
	}
	return true
}

// TestBuildConditionsAreFixedPoints checks that Build emits only
// conditions empty knowledge cannot simplify: the clause emitter drops the
// statically decided expressions ("x < 0", "x > Levels-1"), so no
// expression of a built condition is decided before the first answer.
// The crowd phase's filtered re-simplification relies on it. The data
// are anti-correlated with 3 to 8 levels, so many observed values sit at
// 0 and at Levels-1.
func TestBuildConditionsAreFixedPoints(t *testing.T) {
	for _, levels := range []int{3, 5, 8} {
		rng := rand.New(rand.NewSource(int64(60 + levels)))
		d := dataset.GenAntiCorrelated(rng, 120, 3, levels).InjectMissing(rng, 0.3)
		ends := [2]int{}
		for i := range d.Objects {
			for _, c := range d.Objects[i].Cells {
				switch {
				case c.Missing:
				case c.Value == 0:
					ends[0]++
				case c.Value == levels-1:
					ends[1]++
				}
			}
		}
		if ends[0] == 0 || ends[1] == 0 {
			t.Fatalf("levels %d: %d values at 0 and %d at Levels-1; want both", levels, ends[0], ends[1])
		}
		for _, alpha := range []float64{0, 0.3} {
			ct := Build(d, BuildOptions{Alpha: alpha, Workers: 1})
			know := NewKnowledge(d, gridIDs(d.Len(), d.NumAttrs()))
			undecided := 0
			for i, c := range ct.Conds {
				if _, decided := c.Decided(); decided {
					continue
				}
				undecided++
				if got := c.Simplified(know); got != c {
					t.Fatalf("levels %d, alpha %v: condition %d (%d expressions) simplifies under empty knowledge (to %d)",
						levels, alpha, i, c.NumExprs(), got.NumExprs())
				}
			}
			if undecided == 0 {
				t.Fatalf("levels %d, alpha %v: no undecided condition to check", levels, alpha)
			}
		}
	}
}

// sameForm reports whether two conditions are the same formula in the
// same stored form: decided alike, or the same clauses in build order
// and the same components, with the same canonical clause and literal
// orders, hashes and direct flags — whatever build each shares.
func sameForm(a, b *Condition) bool {
	av, ad := a.Decided()
	bv, bd := b.Decided()
	if ad || bd {
		return ad == bd && av == bv
	}
	if !reflect.DeepEqual(a.Clauses(), b.Clauses()) || a.NumComponents() != b.NumComponents() ||
		!reflect.DeepEqual(a.Vars(), b.Vars()) {
		return false
	}
	for g := 0; g < a.NumComponents(); g++ {
		ca, cb := a.Component(g), b.Component(g)
		if !reflect.DeepEqual(ca, cb) {
			return false
		}
		for _, ci := range ca.Canon {
			la, lb := a.AppendCanonClause(nil, int(ci)), b.AppendCanonClause(nil, int(ci))
			if len(la) != len(lb) {
				return false
			}
			for k := range la {
				if a.exprOf(la[k]) != b.exprOf(lb[k]) {
					return false
				}
			}
		}
	}
	return true
}
