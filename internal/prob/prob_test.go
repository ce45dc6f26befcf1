package prob

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/ctable"
)

func v(obj, attr int) ctable.Var { return ctable.Var{Obj: obj, Attr: attr} }

func uniform(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 / float64(n)
	}
	return d
}

// example3 builds φ(o5) from the paper with the probability distributions
// of Example 3. Hand calculation (inclusion–exclusion over the two shared-
// variable clauses) gives Pr(φ(o5)) = 0.823, the value reported in the
// paper.
func example3() (*ctable.Condition, Dists) {
	x2, x3, x4 := v(4, 1), v(4, 2), v(4, 3) // Var(o5,a2), Var(o5,a3), Var(o5,a4)
	y := v(1, 1)                            // Var(o2,a2)
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.GTConst(x2, 2), ctable.GTConst(x3, 3), ctable.GTConst(x4, 4)},
		{ctable.GTVar(x2, y), ctable.GTConst(x3, 2), ctable.GTConst(x4, 2)},
	})
	dists := Dists{
		x2: uniform(10),
		x3: uniform(8),
		x4: {0.1, 0.1, 0.2, 0.2, 0.3, 0.1},
		y:  uniform(10),
	}
	return cond, dists
}

func TestPaperExample3(t *testing.T) {
	cond, dists := example3()
	ev := NewEvaluator(dists)
	const want = 0.823
	if got := ev.Prob(cond); math.Abs(got-want) > 1e-9 {
		t.Errorf("ADPLL Pr(φ(o5)) = %v, want %v", got, want)
	}
	if got := ev.Naive(cond); math.Abs(got-want) > 1e-9 {
		t.Errorf("Naive Pr(φ(o5)) = %v, want %v", got, want)
	}
	mc := ev.MonteCarlo(cond, 200000, rand.New(rand.NewSource(1)))
	if math.Abs(mc-want) > 0.01 {
		t.Errorf("MonteCarlo Pr(φ(o5)) = %v, want ~%v", mc, want)
	}
}

func TestDecidedConditions(t *testing.T) {
	ev := NewEvaluator(Dists{})
	if got := ev.Prob(ctable.True()); got != 1 {
		t.Errorf("Prob(true) = %v", got)
	}
	if got := ev.Prob(ctable.False()); got != 0 {
		t.Errorf("Prob(false) = %v", got)
	}
	if got := ev.Naive(ctable.True()); got != 1 {
		t.Errorf("Naive(true) = %v", got)
	}
	if got := ev.MonteCarlo(ctable.False(), 10, rand.New(rand.NewSource(1))); got != 0 {
		t.Errorf("MonteCarlo(false) = %v", got)
	}
	if got := ev.StateSpace(ctable.True()); got != 0 {
		t.Errorf("StateSpace(true) = %v", got)
	}
}

func TestExprProb(t *testing.T) {
	x, y := v(0, 0), v(1, 0)
	ev := NewEvaluator(Dists{
		x: {0.1, 0.2, 0.3, 0.4},
		y: {0.25, 0.25, 0.25, 0.25},
	})
	cases := []struct {
		e    ctable.Expr
		want float64
	}{
		{ctable.LTConst(x, 2), 0.3},
		{ctable.LTConst(x, 0), 0},
		{ctable.LTConst(x, 4), 1},
		{ctable.GTConst(x, 1), 0.7},
		{ctable.GTConst(x, 3), 0},
		{ctable.GTConst(x, -1), 1},
		// Pr(X>Y) = Σ_a px[a]·CDF_y(a-1) = 0.2·.25 + 0.3·.5 + 0.4·.75 = 0.5.
		{ctable.GTVar(x, y), 0.5},
		// The degenerate y > y never holds (two independent copies of y
		// would read 0.375).
		{ctable.GTVar(y, y), 0},
	}
	for _, tc := range cases {
		if got := ev.ExprProb(tc.e); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("ExprProb(%v) = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestExprProbPanicsWithoutDist(t *testing.T) {
	ev := NewEvaluator(Dists{})
	defer func() {
		if recover() == nil {
			t.Fatal("missing distribution did not panic")
		}
	}()
	ev.ExprProb(ctable.LTConst(v(9, 9), 1))
}

// randomDist returns a normalised random distribution of the given size.
func randomDist(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	sum := 0.0
	for i := range d {
		d[i] = rng.Float64() + 0.01
		sum += d[i]
	}
	for i := range d {
		d[i] /= sum
	}
	return d
}

// randomCondition builds a random CNF over a small variable pool, with a
// distribution per variable.
func randomCondition(rng *rand.Rand) (*ctable.Condition, Dists) {
	nVars := 2 + rng.Intn(5)
	vars := make([]ctable.Var, nVars)
	dists := Dists{}
	for i := range vars {
		vars[i] = v(i, rng.Intn(3))
		dists[vars[i]] = randomDist(rng, 2+rng.Intn(6))
	}
	nClauses := 1 + rng.Intn(4)
	clauses := make([][]ctable.Expr, 0, nClauses)
	for c := 0; c < nClauses; c++ {
		nExprs := 1 + rng.Intn(3)
		clause := make([]ctable.Expr, 0, nExprs)
		for k := 0; k < nExprs; k++ {
			x := vars[rng.Intn(nVars)]
			switch rng.Intn(3) {
			case 0:
				clause = append(clause, ctable.LTConst(x, rng.Intn(len(dists[x])+1)))
			case 1:
				clause = append(clause, ctable.GTConst(x, rng.Intn(len(dists[x]))))
			default:
				y := vars[rng.Intn(nVars)]
				if y == x {
					clause = append(clause, ctable.GTConst(x, rng.Intn(len(dists[x]))))
				} else {
					clause = append(clause, ctable.GTVar(x, y))
				}
			}
		}
		clauses = append(clauses, clause)
	}
	return ctable.FromClauses(clauses), dists
}

func TestADPLLMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 300; trial++ {
		cond, dists := randomCondition(rng)
		ev := NewEvaluator(dists)
		want := ev.Naive(cond)
		if got := ev.Prob(cond); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: ADPLL = %v, Naive = %v for %v", trial, got, want, cond)
		}
		// Ablation variants must agree too.
		noComp := &Evaluator{Dists: dists, Opt: Options{NoComponents: true}}
		if got := noComp.Prob(cond.Clone()); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: ADPLL(NoComponents) = %v, Naive = %v", trial, got, want)
		}
		firstVar := &Evaluator{Dists: dists, Opt: Options{BranchFirstVar: true}}
		if got := firstVar.Prob(cond.Clone()); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: ADPLL(BranchFirstVar) = %v, Naive = %v", trial, got, want)
		}
	}
}

func TestProbInUnitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 200; trial++ {
		cond, dists := randomCondition(rng)
		ev := NewEvaluator(dists)
		p := ev.Prob(cond)
		if p < 0 || p > 1+1e-12 {
			t.Fatalf("trial %d: Pr = %v outside [0,1]", trial, p)
		}
	}
}

func TestIndependentClausesDirectRule(t *testing.T) {
	// Two clauses over disjoint variables: Pr = (1-(1-p1)(1-p2)) · p3.
	x, y, z := v(0, 0), v(1, 0), v(2, 0)
	ev := NewEvaluator(Dists{
		x: {0.5, 0.5},
		y: {0.25, 0.75},
		z: {0.1, 0.9},
	})
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.GTConst(x, 0), ctable.GTConst(y, 0)}, // 1-(0.5)(0.25) = 0.875
		{ctable.GTConst(z, 0)},                       // 0.9
	})
	want := 0.875 * 0.9
	if got := ev.Prob(cond); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Prob = %v, want %v", got, want)
	}
}

func TestSharedVariableWithinClause(t *testing.T) {
	// (x<1 ∨ x>2) with x uniform over 4: Pr = P(x=0) + P(x=3) = 0.5.
	x := v(0, 0)
	ev := NewEvaluator(Dists{x: uniform(4)})
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.LTConst(x, 1), ctable.GTConst(x, 2)},
	})
	if got := ev.Prob(cond); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Prob = %v, want 0.5", got)
	}
}

func TestZeroProbabilityValuesSkipped(t *testing.T) {
	// A variable whose distribution already excludes some values (crowd
	// answer narrowed it): branching must skip them.
	x := v(0, 0)
	ev := NewEvaluator(Dists{x: {0, 0, 0.5, 0.5}})
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.LTConst(x, 2)},
		{ctable.GTConst(x, 0)}, // shares x: forces branching
	})
	if got := ev.Prob(cond); got != 0 {
		t.Fatalf("Prob = %v, want 0 (x<2 impossible)", got)
	}
}

func TestStateSpace(t *testing.T) {
	cond, dists := example3()
	ev := NewEvaluator(dists)
	if got := ev.StateSpace(cond); got != 10*8*6*10 {
		t.Fatalf("StateSpace = %v, want 4800", got)
	}
}

func TestCondProbsTotalProbability(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		cond, dists := randomCondition(rng)
		if _, decided := cond.Decided(); decided {
			continue
		}
		ev := NewEvaluator(dists)
		exprs := cond.Exprs()
		e := exprs[rng.Intn(len(exprs))]
		pe, pPhi, pTrue, pFalse := ev.CondProbs(cond, e)
		// Law of total probability.
		if recon := pe*pTrue + (1-pe)*pFalse; pe > 1e-9 && pe < 1-1e-9 && math.Abs(recon-pPhi) > 1e-6 {
			t.Fatalf("trial %d: pe·pT + (1-pe)·pF = %v, want %v (pe=%v)", trial, recon, pPhi, pe)
		}
		for _, p := range []float64{pe, pPhi, pTrue, pFalse} {
			if p < 0 || p > 1 {
				t.Fatalf("trial %d: probability %v outside [0,1]", trial, p)
			}
		}
	}
}

func TestCondProbsExample3(t *testing.T) {
	cond, dists := example3()
	ev := NewEvaluator(dists)
	// Condition on e = Var(o5,a4) > 4 (probability 0.1).
	e := ctable.GTConst(v(4, 3), 4)
	pe, pPhi, pTrue, pFalse := ev.CondProbs(cond, e)
	if math.Abs(pe-0.1) > 1e-12 {
		t.Fatalf("pe = %v, want 0.1", pe)
	}
	if math.Abs(pPhi-0.823) > 1e-9 {
		t.Fatalf("pPhi = %v, want 0.823", pPhi)
	}
	// With x4 = 5 both clauses' x4 disjuncts hold: φ true regardless.
	if math.Abs(pTrue-1) > 1e-9 {
		t.Fatalf("pTrue = %v, want 1", pTrue)
	}
	if recon := pe*pTrue + (1-pe)*pFalse; math.Abs(recon-pPhi) > 1e-9 {
		t.Fatalf("total probability violated: %v vs %v", recon, pPhi)
	}
}

func TestMonteCarloPanicsOnBadSamples(t *testing.T) {
	cond, dists := example3()
	ev := NewEvaluator(dists)
	defer func() {
		if recover() == nil {
			t.Fatal("MonteCarlo(0 samples) did not panic")
		}
	}()
	ev.MonteCarlo(cond, 0, rand.New(rand.NewSource(1)))
}

func BenchmarkADPLLExample3(b *testing.B) {
	cond, dists := example3()
	ev := NewEvaluator(dists)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Prob(cond)
	}
}

func BenchmarkNaiveExample3(b *testing.B) {
	cond, dists := example3()
	ev := NewEvaluator(dists)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Naive(cond)
	}
}

// TestNarrow checks the renormalisation Narrow applies: mass outside the
// interval goes to zero, the whole domain leaves the base as it was, and
// an interval the base gives no mass falls back to uniform over it.
// Each narrowing starts from the base, which stays unwritten.
func TestNarrow(t *testing.T) {
	x, y := v(0, 0), v(1, 0)
	base := []float64{0.1, 0.2, 0.3, 0.4}
	ev := NewEvaluator(Dists{x: base, y: {0.5, 0.5, 0, 0}})
	for _, c := range []struct {
		x    ctable.Var
		iv   Interval
		want []float64
	}{
		{x, Interval{Lo: 1, Hi: 2}, []float64{0, 0.4, 0.6, 0}},
		{x, Interval{Lo: 0, Hi: 3}, base},
		{y, Interval{Lo: 2, Hi: 3}, []float64{0, 0, 0.5, 0.5}},
	} {
		ev.Narrow(c.x, c.iv)
		st := ev.state(c.x)
		if !st.Narrowed || st.Interval != c.iv {
			t.Fatalf("Narrow(%v, %v) records narrowed %v at %v", c.x, c.iv, st.Narrowed, st.Interval)
		}
		for a := range c.want {
			if math.Abs(st.Dist[a]-c.want[a]) > 1e-12 {
				t.Fatalf("Narrow(%v, %v) = %v, want %v", c.x, c.iv, st.Dist, c.want)
			}
		}
	}
	if got := ev.state(x).Base; &got[0] != &base[0] || base[0] != 0.1 {
		t.Fatalf("the base of %v moved or was written: %v", x, got)
	}
}
