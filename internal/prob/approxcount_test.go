package prob

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/ctable"
)

func TestApproxCountExample3(t *testing.T) {
	cond, dists := example3()
	ev := NewEvaluator(dists)
	rng := rand.New(rand.NewSource(1))
	// ApproxCount is a noisy, downward-biased estimator: fixing each
	// level's variable to the *empirically* most frequent satisfying
	// value overestimates that value's conditional share (argmax bias),
	// so the telescoped product tends to come in low — Wei & Selman sell
	// the algorithm as a high-confidence lower bound, and this inaccuracy
	// is exactly why §5 reports it losing to ADPLL. Assert the estimate
	// lands in a bracket around the exact 0.823 that admits the known
	// downward bias but rejects nonsense.
	const runs = 60
	sum := 0.0
	for i := 0; i < runs; i++ {
		sum += ev.ApproxCount(cond, 120, rng)
	}
	got := sum / runs
	if got < 0.45 || got > 0.95 {
		t.Fatalf("ApproxCount mean = %v, want a biased-low estimate in [0.45, 0.95] around 0.823", got)
	}
}

func TestApproxCountDecidedAndValidation(t *testing.T) {
	ev := NewEvaluator(Dists{})
	rng := rand.New(rand.NewSource(2))
	if got := ev.ApproxCount(ctable.True(), 10, rng); got != 1 {
		t.Fatalf("ApproxCount(true) = %v", got)
	}
	if got := ev.ApproxCount(ctable.False(), 10, rng); got != 0 {
		t.Fatalf("ApproxCount(false) = %v", got)
	}
	cond, dists := example3()
	defer func() {
		if recover() == nil {
			t.Fatal("ApproxCount with 0 samples did not panic")
		}
	}()
	NewEvaluator(dists).ApproxCount(cond, 0, rng)
}

func TestApproxCountIndependentFormulaExact(t *testing.T) {
	// A fully independent formula short-circuits through the direct rule,
	// so the estimate is exact.
	x, y := v(0, 0), v(1, 0)
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.LTConst(x, 2)},
		{ctable.GTConst(y, 1)},
	})
	ev := NewEvaluator(Dists{x: uniform(4), y: uniform(4)})
	want := 0.5 * 0.5
	got := ev.ApproxCount(cond, 10, rand.New(rand.NewSource(3)))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ApproxCount = %v, want exactly %v", got, want)
	}
}

func TestApproxCountUnsatisfiableGoesToZero(t *testing.T) {
	// (x < 2) ∧ (x > 5) over 0..7 is unsatisfiable; the estimator must
	// return 0 (simplification or failed sampling).
	x, y := v(0, 0), v(1, 0)
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.LTConst(x, 2), ctable.LTConst(y, 1)},
		{ctable.GTConst(x, 5), ctable.LTConst(y, 1)},
		{ctable.GTConst(y, 0)},
	})
	ev := NewEvaluator(Dists{x: uniform(8), y: uniform(8)})
	if want := ev.Prob(cond.Clone()); want != 0 {
		t.Fatalf("fixture not unsatisfiable: Pr = %v", want)
	}
	got := ev.ApproxCount(cond, 50, rand.New(rand.NewSource(4)))
	if got != 0 {
		t.Fatalf("ApproxCount = %v on unsatisfiable formula", got)
	}
}

func TestApproxCountTracksADPLLOnRandomFormulas(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	var worst float64
	for trial := 0; trial < 25; trial++ {
		cond, dists := randomCondition(rng)
		if _, decided := cond.Decided(); decided {
			continue
		}
		ev := NewEvaluator(dists)
		want := ev.Prob(cond.Clone())
		const runs = 40
		sum := 0.0
		for i := 0; i < runs; i++ {
			sum += ev.ApproxCount(cond.Clone(), 80, rng)
		}
		got := sum / runs
		if d := math.Abs(got - want); d > worst {
			worst = d
		}
		if math.Abs(got-want) > 0.25 {
			t.Fatalf("trial %d: ApproxCount mean %v vs exact %v (formula %v)", trial, got, want, cond)
		}
	}
	t.Logf("worst mean absolute deviation: %.3f", worst)
}

// The sampling estimators answer to the engine corpus too: their outputs
// are pure functions of the condition, the distributions and the rng
// seed, so the approxcount and montecarlo sections of
// testdata/engine_corpus.txt pin them bit for bit, and any rewrite of an
// estimator must reproduce its draws exactly. Every output gets a fresh
// rng seeded with its case index.

// approxCountSamples are the per-level sample counts the approxcount
// section records for each random condition, under the default and the
// BranchFirstVar branching rules.
var approxCountSamples = []int{1, 7, 60}

// corpusApproxCount runs ApproxCount on the 400 seeded random CNFs of
// the random section — six outputs per case, the default then the
// BranchFirstVar rule at each of approxCountSamples — and then on every
// NBA condition at 60 samples per level.
func corpusApproxCount(nba []*ctable.Condition, nbaDists Dists) []corpusCase {
	var out []corpusCase
	for seed := int64(0); seed < 400; seed++ {
		cond, dists := randomCondition(rand.New(rand.NewSource(seed)))
		var ps []float64
		for _, firstVar := range []bool{false, true} {
			ev := &Evaluator{Dists: dists, Opt: Options{BranchFirstVar: firstVar}}
			for _, k := range approxCountSamples {
				ps = append(ps, ev.ApproxCount(cond, k, rand.New(rand.NewSource(seed))))
			}
		}
		out = append(out, corpusCase{inputKey(condInput(cond, dists)), floatBits(ps...)})
	}
	ev := NewEvaluator(nbaDists)
	for i, c := range nba {
		p := ev.ApproxCount(c, 60, rand.New(rand.NewSource(int64(i))))
		out = append(out, corpusCase{inputKey(condInput(c, nbaDists)), floatBits(p)})
	}
	return out
}

// monteCarloSamples are the sample counts the montecarlo section records
// for each random condition.
var monteCarloSamples = []int{1, 50, 500}

// corpusMonteCarlo runs MonteCarlo on the 400 seeded random CNFs at each
// of monteCarloSamples, then on every NBA condition at 300 samples.
func corpusMonteCarlo(nba []*ctable.Condition, nbaDists Dists) []corpusCase {
	var out []corpusCase
	for seed := int64(0); seed < 400; seed++ {
		cond, dists := randomCondition(rand.New(rand.NewSource(seed)))
		ev := NewEvaluator(dists)
		var ps []float64
		for _, k := range monteCarloSamples {
			ps = append(ps, ev.MonteCarlo(cond, k, rand.New(rand.NewSource(seed))))
		}
		out = append(out, corpusCase{inputKey(condInput(cond, dists)), floatBits(ps...)})
	}
	ev := NewEvaluator(nbaDists)
	for i, c := range nba {
		p := ev.MonteCarlo(c, 300, rand.New(rand.NewSource(int64(i))))
		out = append(out, corpusCase{inputKey(condInput(c, nbaDists)), floatBits(p)})
	}
	return out
}

// TestApproxEstimatorsCorpus pins ApproxCount and MonteCarlo to the
// frozen corpus, on the random CNFs and an NBA-shaped workload.
func TestApproxEstimatorsCorpus(t *testing.T) {
	conds, dists := nbaConditions(400, 0.3, 0.1, 9)
	checkCorpus(t, "approxcount", "default", corpusApproxCount(conds, dists))
	checkCorpus(t, "montecarlo", "default", corpusMonteCarlo(conds, dists))
}

// BenchmarkApproxEstimators times the sampling estimators on an
// NBA-shaped workload: ApproxCount at 60 samples per level on the first
// 50 conditions, MonteCarlo at 200 samples on every condition, and the
// ApproxThreshold fallback (threshold 4) as one sequential, uncached
// ProbAll over every condition. One op is one pass over its conditions.
func BenchmarkApproxEstimators(b *testing.B) {
	conds, dists := nbaConditions(400, 0.3, 0.1, 9)
	b.Run("ApproxCount", func(b *testing.B) {
		ev := NewEvaluator(dists)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			for _, c := range conds[:50] {
				ev.ApproxCount(c, 60, rng)
			}
		}
	})
	b.Run("MonteCarlo", func(b *testing.B) {
		ev := NewEvaluator(dists)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(1))
			for _, c := range conds {
				ev.MonteCarlo(c, 200, rng)
			}
		}
	})
	b.Run("Fallback", func(b *testing.B) {
		ev := &Evaluator{Dists: dists, Opt: Options{ApproxThreshold: 4}}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.ProbAll(conds, 1)
		}
	})
}
