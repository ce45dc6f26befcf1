package prob

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"bayescrowd/internal/ctable"
)

// TestSweepVectorsMatchNaive gives the all-variable sweep pass an
// independent reference: for every variable CondScan.PlanSweeps sweeps,
// each entry of the joint vector Pr(comp ∧ x=a) must match Naive
// enumeration of the component with x's distribution cut down to the
// single value a. Seeded random CNFs and NBA-shaped conditions both run.
func TestSweepVectorsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	checked := 0
	for trial := 0; trial < 300; trial++ {
		cond, dists := randomCondition(rng)
		checked += checkSweepsNaive(t, cond, dists, rng)
	}
	conds, dists := nbaConditions(150, 0.25, 0.1, 5)
	for _, c := range conds {
		checked += checkSweepsNaive(t, c, dists, rng)
	}
	t.Logf("%d swept vectors checked against Naive", checked)
	if checked < 300 {
		t.Fatalf("only %d swept vectors checked", checked)
	}
}

// checkSweepsNaive plans sweeps on one condition and checks every swept
// vector whose component Naive can enumerate cheaply; it returns how many
// vectors it checked. Candidates are constant comparisons on a random
// subset of the variables, one per cut point, so each chosen variable's
// component clears the sweep threshold while its other variables stay
// unmarked — the pass must then fill in only what was asked for.
func checkSweepsNaive(t *testing.T, c *ctable.Condition, dists Dists, rng *rand.Rand) int {
	t.Helper()
	if _, decided := c.Decided(); decided {
		return 0
	}
	ev := NewEvaluator(dists)
	scan := ev.NewCondScan(c, ev.Prob(c))
	var cands []ctable.Expr
	for _, x := range c.Vars() {
		if rng.Intn(2) == 0 {
			continue
		}
		for k := 0; k <= len(dists[x]); k++ {
			cands = append(cands, ctable.LTConst(x, k))
		}
	}
	scan.PlanSweeps(cands)
	n := 0
	for i, x := range c.Vars() {
		vec, ok := scan.sweeps[x]
		if !ok {
			continue
		}
		var clauses [][]ctable.Expr
		all := c.Clauses()
		for _, ci := range c.Component(c.VarComponent(i)).Canon {
			clauses = append(clauses, all[ci])
		}
		comp := ctable.FromClauses(clauses)
		if ev.StateSpace(comp) > 1e5 {
			continue
		}
		if len(vec) != len(dists[x]) {
			t.Fatalf("%v: vector length %d, domain %d", x, len(vec), len(dists[x]))
		}
		for a, got := range vec {
			if want := pinnedNaive(dists, comp, x, a); math.Abs(got-want) > 1e-12*math.Abs(want) {
				t.Fatalf("Pr(comp ∧ %v=%d): sweep %v, naive %v (component %s)", x, a, got, want, comp)
			}
		}
		n++
	}
	return n
}

// pinnedNaive returns Pr(comp ∧ x=a) by Naive enumeration: x's
// distribution keeps only its mass at a, so every enumerated assignment
// fixes x=a and carries its true joint weight.
func pinnedNaive(dists Dists, comp *ctable.Condition, x ctable.Var, a int) float64 {
	pinned := make(Dists, len(dists))
	for v, d := range dists {
		pinned[v] = d
	}
	point := make([]float64, len(dists[x]))
	point[a] = dists[x][a]
	pinned[x] = point
	return NewEvaluator(pinned).Naive(comp)
}

// TestNoComponentsRunsCompiledEngine pins the NoComponents ablation to
// the compiled clause-state engine: once the pooled scratch is warm,
// evaluating the deep chain allocates a small constant, where a
// clause-rewriting recursion would allocate at every node. sync.Pool may
// drop scratch (a GC, or the race detector's random drops), so the
// steady-state figure is the minimum over several single-run samples.
func TestNoComponentsRunsCompiledEngine(t *testing.T) {
	cond, dists := deepChain()
	ev := &Evaluator{Dists: dists, Opt: Options{NoComponents: true}}
	eval := func() { ev.Prob(cond) }
	best := math.Inf(1)
	for i := 0; i < 8; i++ {
		best = math.Min(best, testing.AllocsPerRun(1, eval))
	}
	t.Logf("NoComponents deep chain: %v allocs per evaluation", best)
	if best > 2 {
		t.Fatalf("NoComponents deep chain allocates %v times per evaluation, want at most 2", best)
	}
}

// TestSweepLeavesScalarSolvesLean checks that a marginal sweep never
// carries its vector bookkeeping into a later scalar solve on the same
// pooled solver: right after CondScan.PlanSweeps has swept an NBA
// condition, an uncached Prob of it allocates exactly as often as it did
// before any sweep, for every condition that branches. The test holds
// GOMAXPROCS at 1, so AllocsPerRun does not change it — which would drop
// the pool, swept solver included. sync.Pool may still drop scratch (a
// GC, or the race detector's random drops of one Put in four), so each
// figure is the minimum over 16 single-run samples.
func TestSweepLeavesScalarSolvesLean(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	conds, dists := nbaConditions(2000, 0.1, 0.01, 1)
	ev := NewEvaluator(dists)
	var branched []*ctable.Condition
	for _, c := range conds {
		for g := 0; g < c.NumComponents(); g++ {
			if !c.Component(g).Direct {
				branched = append(branched, c)
				break
			}
		}
	}
	if len(branched) < 100 {
		t.Fatalf("only %d branched conditions", len(branched))
	}
	allocs := func(c *ctable.Condition) float64 {
		best := math.Inf(1)
		for i := 0; i < 16; i++ {
			best = math.Min(best, testing.AllocsPerRun(1, func() { ev.Prob(c) }))
		}
		return best
	}
	before := make([]float64, len(branched))
	total := 0.0
	for i, c := range branched {
		before[i] = allocs(c)
		total += before[i]
	}
	t.Logf("%d branched conditions, %.3f allocs per Prob before any sweep", len(branched), total/float64(len(branched)))

	for i, c := range branched {
		var cands []ctable.Expr
		for _, x := range c.Vars() {
			for k := 0; k <= len(dists[x]); k++ {
				cands = append(cands, ctable.LTConst(x, k))
			}
		}
		ev.NewCondScan(c, ev.Prob(c)).PlanSweeps(cands)
		if got := allocs(c); got != before[i] {
			t.Fatalf("condition %d: Prob allocates %v times after a sweep, %v before", i, got, before[i])
		}
	}
}
