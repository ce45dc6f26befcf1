package prob

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bayescrowd/internal/ctable"
)

// chainCondition builds one connected component with exactly n distinct
// variables: a var-vs-var chain x0 > x1, x1 > x2, ... Each variable gets
// a seeded random distribution over `levels` values.
func chainCondition(n, levels int, seed int64) (*ctable.Condition, Dists) {
	rng := rand.New(rand.NewSource(seed))
	vars := make([]ctable.Var, n)
	dists := Dists{}
	for i := range vars {
		vars[i] = v(i, 0)
		dists[vars[i]] = randomDist(rng, levels)
	}
	var clauses [][]ctable.Expr
	for i := 0; i+1 < n; i++ {
		clauses = append(clauses, []ctable.Expr{ctable.GTVar(vars[i], vars[i+1])})
	}
	return ctable.FromClauses(clauses), dists
}

// TestApproxFallbackBoundary pins the decision rule at the threshold: a
// component of exactly ApproxThreshold variables stays exact; one more
// variable trips the fallback.
func TestApproxFallbackBoundary(t *testing.T) {
	const k = 5
	atBoundary, dists := chainCondition(k, 4, 1)
	ev := &Evaluator{Dists: dists, Opt: Options{ApproxThreshold: k}}
	exact := (&Evaluator{Dists: dists}).Prob(atBoundary)
	if got := ev.Prob(atBoundary); !sameBits(got, exact) {
		t.Fatalf("component of exactly %d vars was not solved exactly: %v vs %v", k, got, exact)
	}
	if n := ev.ApproxComponents(); n != 0 {
		t.Fatalf("fallback fired %d times at the boundary, want 0", n)
	}

	over, overDists := chainCondition(k+1, 4, 1)
	ev2 := &Evaluator{Dists: overDists, Opt: Options{ApproxThreshold: k}}
	ev2.Prob(over)
	if n := ev2.ApproxComponents(); n != 1 {
		t.Fatalf("fallback fired %d times above the boundary, want 1", n)
	}
}

// TestApproxFallbackAgreement asserts the documented bound: on seeded
// components the approximate estimate stays within 0.05 absolute of the
// exact probability (see Evaluator.ApproxComponents).
func TestApproxFallbackAgreement(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		cond, dists := chainCondition(7, 4, seed)
		exact := (&Evaluator{Dists: dists}).Prob(cond)
		approx := (&Evaluator{Dists: dists, Opt: Options{ApproxThreshold: 4}}).Prob(cond)
		if math.Abs(exact-approx) > 0.05 {
			t.Errorf("seed %d: |exact %v - approx %v| exceeds the documented 0.05 bound",
				seed, exact, approx)
		}
	}

	// An NBA-shaped workload: every condition, one or several of its
	// components estimated, lands within the bound.
	conds, dists := nbaConditions(400, 0.3, 0.1, 9)
	exact := (&Evaluator{Dists: dists, Cache: NewComponentCache(DefaultCacheSize)}).ProbAll(conds, 0)
	ev := &Evaluator{Dists: dists, Opt: Options{ApproxThreshold: 4}, Cache: NewComponentCache(DefaultCacheSize)}
	approx := ev.ProbAll(conds, 0)
	if ev.ApproxComponents() == 0 {
		t.Fatal("NBA workload never tripped the fallback")
	}
	over, worst := 0, 0.0
	for i := range conds {
		d := math.Abs(exact[i] - approx[i])
		worst = max(worst, d)
		if d > 0.05 {
			over++
		}
	}
	if over > 0 {
		t.Errorf("NBA: %d of %d conditions off by more than 0.05 (max %.3f)", over, len(conds), worst)
	}
}

// permuted returns a copy of c with its clause order and every clause's
// literal order reversed: the same formula in a different layout, so its
// variable table numbers them in a different order.
func permuted(c *ctable.Condition) *ctable.Condition {
	clauses := c.Clauses()
	for _, cl := range clauses {
		slices.Reverse(cl)
	}
	slices.Reverse(clauses)
	return ctable.FromClauses(clauses)
}

// TestApproxFallbackCacheOrder checks that an estimate depends on the
// component alone, not on the layout of the condition it was first met
// in: after a clause-permuted copy of each condition warms a shared
// cache, every condition reads back exactly its uncached value.
func TestApproxFallbackCacheOrder(t *testing.T) {
	conds, dists := nbaConditions(400, 0.3, 0.1, 9)
	conds = conds[:40]
	opt := Options{ApproxThreshold: 4}
	want := (&Evaluator{Dists: dists, Opt: opt}).ProbAll(conds, 1)
	ev := &Evaluator{Dists: dists, Opt: opt, Cache: NewComponentCache(DefaultCacheSize)}
	for _, c := range conds {
		ev.Prob(permuted(c))
	}
	if ev.ApproxComponents() == 0 {
		t.Fatal("warm-up never tripped the fallback")
	}
	differ := 0
	for i, c := range conds {
		if got := ev.Prob(c); !sameBits(got, want[i]) {
			differ++
			t.Logf("condition %d: %v after a permuted warm-up, %v uncached", i, got, want[i])
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d conditions changed value after a permuted copy warmed the cache", differ, len(conds))
	}
}

// TestApproxFallbackDeterminism runs an NBA-shaped workload through the
// fallback at several worker counts: the fingerprint-seeded estimator
// must return identical floats, and — without a shared cache — fire on
// exactly the same components, regardless of scheduling.
func TestApproxFallbackDeterminism(t *testing.T) {
	conds, dists := nbaConditions(200, 0.3, 0.1, 9)
	if len(conds) == 0 {
		t.Fatal("no undecided conditions generated")
	}
	opt := Options{ApproxThreshold: 4}
	ref := &Evaluator{Dists: dists, Opt: opt}
	want := ref.ProbAll(conds, 1)
	wantN := ref.ApproxComponents()
	if wantN == 0 {
		t.Fatal("workload never tripped the fallback; lower the threshold")
	}
	for _, workers := range []int{2, 5, 16} {
		ev := &Evaluator{Dists: dists, Opt: opt}
		if got := ev.ProbAll(conds, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: approx results differ from sequential", workers)
		}
		if n := ev.ApproxComponents(); n != wantN {
			t.Fatalf("workers=%d: fallback fired %d times, want %d", workers, n, wantN)
		}
	}
	// With a shared cache the values must still be identical (the count
	// may differ: whichever worker misses first computes).
	cached := &Evaluator{Dists: dists, Opt: Options{ApproxThreshold: 4},
		Cache: NewComponentCache(DefaultCacheSize)}
	if got := cached.ProbAll(conds, 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("cached approx results differ from uncached sequential")
	}
}
