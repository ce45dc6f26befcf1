package prob

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/ctable"
)

func TestVarVarChainExact(t *testing.T) {
	// φ = (x > y) ∧ (y > z) over uniform 3-level variables: the
	// satisfying assignments are exactly x=2,y=1,z=0 → 1/27.
	x, y, z := v(0, 0), v(1, 0), v(2, 0)
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.GTVar(x, y)},
		{ctable.GTVar(y, z)},
	})
	ev := NewEvaluator(Dists{x: uniform(3), y: uniform(3), z: uniform(3)})
	want := 1.0 / 27.0
	if got := ev.Prob(cond); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Prob = %v, want %v", got, want)
	}
	if got := ev.Naive(cond); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Naive = %v, want %v", got, want)
	}
}

func TestVarVarSubstitutionRewrite(t *testing.T) {
	// After branching one side of x > y, the solver rewrites the residual
	// into a constant comparison; this exercises both rewrite directions
	// via a formula that forces branching on either x or y first.
	x, y := v(0, 0), v(1, 0)
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.GTVar(x, y)},
		{ctable.LTConst(x, 3), ctable.GTConst(y, 0)},
		{ctable.GTConst(x, 0), ctable.LTConst(y, 3)},
	})
	ev := NewEvaluator(Dists{x: {0.25, 0.25, 0.25, 0.25}, y: {0.4, 0.3, 0.2, 0.1}})
	want := ev.Naive(cond)
	if got := ev.Prob(cond); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Prob = %v, Naive = %v", got, want)
	}
}

func TestManyIndependentClausesLinear(t *testing.T) {
	// 200 var-disjoint clauses: ADPLL must solve via the direct rule —
	// effectively instant despite a 6^400 state space.
	var clauses [][]ctable.Expr
	dists := Dists{}
	for i := 0; i < 200; i++ {
		a, b := v(i, 0), v(i, 1)
		dists[a] = uniform(6)
		dists[b] = uniform(6)
		clauses = append(clauses, []ctable.Expr{
			ctable.LTConst(a, 3), ctable.GTVar(b, a),
		})
	}
	// Within each clause a is shared by both expressions, so the clause
	// itself needs branching, but clauses are mutually independent.
	cond := ctable.FromClauses(clauses)
	ev := NewEvaluator(dists)
	got := ev.Prob(cond)

	// Per clause: Pr(a<3 ∨ b>a) = 1 - Pr(a>=3 ∧ b<=a)
	//           = 1 - Σ_{a>=3} (1/6)·(a+1)/6 = 1 - (4+5+6)/36·(1/6)... compute:
	single := 0.0
	for a := 0; a < 6; a++ {
		pa := 1.0 / 6
		pbLEa := float64(a+1) / 6
		if a >= 3 {
			single += pa * pbLEa
		}
	}
	want := math.Pow(1-single, 200)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Prob = %v, want %v", got, want)
	}
}

func TestDeepSharedVariableFormula(t *testing.T) {
	// One variable shared across many clauses: branching on it once must
	// decompose everything (the Figure 4 condition shape).
	shared := v(0, 0)
	dists := Dists{shared: uniform(8)}
	var clauses [][]ctable.Expr
	for i := 1; i <= 30; i++ {
		p := v(i, 0)
		dists[p] = uniform(8)
		clauses = append(clauses, []ctable.Expr{
			ctable.GTVar(shared, p), ctable.LTConst(p, 4),
		})
	}
	cond := ctable.FromClauses(clauses)
	ev := NewEvaluator(dists)
	got := ev.Prob(cond)
	// Per clause given shared=a: Pr(p < a ∨ p < 4) = Pr(p < max(a,4)).
	want := 0.0
	for a := 0; a < 8; a++ {
		m := a
		if m < 4 {
			m = 4
		}
		want += (1.0 / 8) * math.Pow(float64(m)/8, 30)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Prob = %v, want %v", got, want)
	}
	if got < 0 || got > 1 {
		t.Fatalf("Prob outside [0,1]: %v", got)
	}
}

func TestSolverRandomisedStress(t *testing.T) {
	// Larger random formulas than the base property test, ADPLL-only
	// (Naive would be too slow), asserting the [0,1] invariant and
	// agreement between solver configurations.
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		nVars := 8 + rng.Intn(8)
		vars := make([]ctable.Var, nVars)
		dists := Dists{}
		for i := range vars {
			vars[i] = v(i, rng.Intn(2))
			dists[vars[i]] = randomDist(rng, 2+rng.Intn(7))
		}
		var clauses [][]ctable.Expr
		for c := 0; c < 4+rng.Intn(10); c++ {
			var clause []ctable.Expr
			for k := 0; k < 1+rng.Intn(3); k++ {
				x := vars[rng.Intn(nVars)]
				switch rng.Intn(3) {
				case 0:
					clause = append(clause, ctable.LTConst(x, rng.Intn(len(dists[x])+1)))
				case 1:
					clause = append(clause, ctable.GTConst(x, rng.Intn(len(dists[x]))))
				default:
					y := vars[rng.Intn(nVars)]
					if y != x {
						clause = append(clause, ctable.GTVar(x, y))
					} else {
						clause = append(clause, ctable.GTConst(x, 0))
					}
				}
			}
			clauses = append(clauses, clause)
		}
		cond := ctable.FromClauses(clauses)
		full := NewEvaluator(dists)
		p := full.Prob(cond)
		if p < -1e-12 || p > 1+1e-12 {
			t.Fatalf("trial %d: Prob = %v outside [0,1]", trial, p)
		}
		noComp := &Evaluator{Dists: dists, Opt: Options{NoComponents: true}}
		if q := noComp.Prob(cond.Clone()); math.Abs(p-q) > 1e-9 {
			t.Fatalf("trial %d: components %v vs no-components %v", trial, p, q)
		}
		mc := full.MonteCarlo(cond.Clone(), 40000, rand.New(rand.NewSource(int64(trial))))
		if math.Abs(p-mc) > 0.02 {
			t.Fatalf("trial %d: ADPLL %v vs MonteCarlo %v", trial, p, mc)
		}
	}
}

// TestDegenerateUnitIsImpossible checks that x > x never holds. In both
// decomposition modes Pr(φ ∧ x>x) is 0: the direct rule must not read
// x > x as a comparison of two independent variables, at the root or
// below a branch. Both probe entry points, CondProbsWith and
// CondScan.CondProbs, cached or not, report Pr(x>x) = 0 and so leave
// Pr(φ|x>x) and Pr(φ|¬(x>x)) at Pr(φ), for x inside the condition and
// for a variable it does not mention.
func TestDegenerateUnitIsImpossible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	outside := v(99, 0)
	checked := 0
	for trial := 0; trial < 100; trial++ {
		cond, dists := randomCondition(rng)
		if _, decided := cond.Decided(); decided {
			continue
		}
		x := cond.Vars()[rng.Intn(len(cond.Vars()))]
		for _, opt := range []Options{{}, {NoComponents: true}} {
			ev := &Evaluator{Dists: dists, Opt: opt}
			s := ev.solverFor(cond, 2)
			pBoth := s.probWith(s.unitLit(ctable.GTVar(x, x)), nil)
			s.release()
			if pBoth != 0 {
				t.Fatalf("trial %d %+v: Pr(φ ∧ %v > %v) = %v, want 0 (condition %s)", trial, opt, x, x, pBoth, cond)
			}
		}
		dists[outside] = uniform(4)
		for _, cached := range []bool{false, true} {
			ev := NewEvaluator(dists)
			if cached {
				ev.Cache = NewComponentCache(DefaultCacheSize)
			}
			p := ev.Prob(cond)
			scan := ev.NewCondScan(cond, p)
			for _, y := range []ctable.Var{x, outside} {
				e := ctable.GTVar(y, y)
				for entry, got := range [][4]float64{
					quad(ev.CondProbsWith(cond, e, p)),
					quad(scan.CondProbs(e)),
				} {
					// Pr(φ|¬e) is clamped to [0, 1]; Pr(φ|e) is Pr(φ) as is.
					if want := [4]float64{0, p, p, clampProb(p)}; got != want {
						t.Fatalf("trial %d cached=%v entry %d: (Pr(e), Pr(φ), Pr(φ|e), Pr(φ|¬e)) for %v = %v, want %v (condition %s)",
							trial, cached, entry, e, got, want, cond)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no undecided condition generated")
	}
}

func quad(a, b, c, d float64) [4]float64 { return [4]float64{a, b, c, d} }
