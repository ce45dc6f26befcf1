package prob

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bayescrowd/internal/ctable"
)

// randClauses builds a random CNF over nVars fresh variables, registering
// their distributions in dists. Mirrors the solver stress generator.
func randClauses(rng *rand.Rand, nVars int, dists Dists) [][]ctable.Expr {
	vars := make([]ctable.Var, nVars)
	for i := range vars {
		vars[i] = v(1000+len(dists)+i, rng.Intn(2))
		dists[vars[i]] = randomDist(rng, 2+rng.Intn(7))
	}
	var clauses [][]ctable.Expr
	for c := 0; c < 3+rng.Intn(8); c++ {
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
	return clauses
}

// TestCacheBitIdentical checks the central design property: cached and
// uncached evaluation return bit-identical probabilities, for Prob and for
// the CondProbsWith probe quartet, because both modes solve branched
// components in the same canonical order and the cache only replaces a
// recomputation with a lookup.
func TestCacheBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		dists := Dists{}
		clauses := randClauses(rng, 6+rng.Intn(8), dists)
		cond := ctable.FromClauses(clauses)

		cached := &Evaluator{Dists: dists, Cache: NewComponentCache(0)}
		plain := &Evaluator{Dists: dists, Cache: nil}

		// Evaluate through the cached evaluator twice — the second run
		// serves branched components from the cache — and through the
		// cacheless evaluator; all three must agree bit for bit.
		p1 := cached.Prob(cond.Clone())
		p2 := cached.Prob(cond.Clone())
		p0 := plain.Prob(cond.Clone())
		if p1 != p0 || p2 != p0 {
			t.Fatalf("trial %d: Prob cached %v / rerun %v vs uncached %v", trial, p1, p2, p0)
		}

		for _, cl := range cond.Clauses {
			for _, e := range cl {
				ae, aPhi, aT, aF := cached.CondProbsWith(cond, e, p1)
				be, bPhi, bT, bF := plain.CondProbsWith(cond, e, p0)
				if ae != be || aPhi != bPhi || aT != bT || aF != bF {
					t.Fatalf("trial %d: CondProbsWith(%v) cached (%v,%v,%v,%v) vs uncached (%v,%v,%v,%v)",
						trial, e, ae, aPhi, aT, aF, be, bPhi, bT, bF)
				}
			}
		}
	}
}

// TestCondScanMatchesCondProbsWith checks that the component-scan probe
// path agrees with the full-formula probe path within 1e-12 for every
// expression of the condition, cache on and off. The conditionals pTrue
// and pFalse are compared through the stable joints Pr(φ∧e) = pe·pTrue
// and Pr(φ∧¬e) = (1−pe)·pFalse: when pe sits within an ulp of 0 or 1 the
// corresponding ratio divides float noise by float noise, and both paths
// return a legitimate-but-arbitrary clamp — the utility formulas multiply
// the same weight straight back, so the joints are what must agree.
func TestCondScanMatchesCondProbsWith(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		dists := Dists{}
		clauses := randClauses(rng, 6+rng.Intn(8), dists)
		cond := ctable.FromClauses(clauses)

		for _, ev := range []*Evaluator{
			{Dists: dists, Cache: NewComponentCache(0)},
			{Dists: dists},
		} {
			pPhi := ev.Prob(cond.Clone())
			scan := ev.NewCondScan(cond, pPhi)
			planned := ev.NewCondScan(cond, pPhi)
			planned.PlanSweeps(cond.Exprs())
			for _, cl := range cond.Clauses {
				for _, e := range cl {
					for _, cs := range []*CondScan{scan, planned} {
						ae, aPhi, aT, aF := cs.CondProbs(e)
						be, bPhi, bT, bF := ev.CondProbsWith(cond, e, pPhi)
						drifts := []float64{
							ae - be, aPhi - bPhi,
							ae*aT - be*bT, (1-ae)*aF - (1-be)*bF,
						}
						for i, d := range drifts {
							if math.Abs(d) > 1e-12 {
								t.Fatalf("trial %d (cached=%v, planned=%v): scan vs full for %v: quantity %d drifts %v",
									trial, ev.Cache != nil, cs == planned, e, i, d)
							}
						}
					}
				}
			}
		}
	}
}

// twoComponentCondition builds a condition with exactly two branched
// connected components (each has a variable occurring in two clauses, so
// the direct independence rule cannot decide it and the solver must
// branch — and therefore consult the cache).
func twoComponentCondition() (*ctable.Condition, Dists, ctable.Var, ctable.Var) {
	x1, y1 := v(0, 0), v(1, 0)
	x2, y2 := v(2, 0), v(3, 0)
	cond := ctable.FromClauses([][]ctable.Expr{
		{ctable.GTConst(x1, 1)},
		{ctable.GTVar(x1, y1)},
		{ctable.GTConst(x2, 2)},
		{ctable.GTVar(x2, y2)},
	})
	dists := Dists{x1: uniform(5), y1: uniform(5), x2: uniform(6), y2: uniform(6)}
	return cond, dists, x1, x2
}

// TestInvalidatePrecision checks that Invalidate kills exactly the
// components mentioning the bumped variable: after invalidating one of two
// cached components, re-evaluation hits the untouched component and
// recomputes only the stale one — with the correct value under the new
// distribution.
func TestInvalidatePrecision(t *testing.T) {
	cond, dists, x1, _ := twoComponentCondition()
	cache := NewComponentCache(0)
	ev := &Evaluator{Dists: dists, Cache: cache}

	ev.Prob(cond.Clone())
	s := cache.Stats()
	if s.Misses != 2 || s.Hits != 0 {
		t.Fatalf("first evaluation: stats %+v, want 2 misses (one per branched component)", s)
	}

	ev.Prob(cond.Clone())
	s = cache.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("second evaluation: stats %+v, want 2 hits", s)
	}

	// A crowd answer narrows x1's interval: renormalise its distribution
	// and invalidate. Only the x1 component may be recomputed.
	dists[x1] = []float64{0, 0.25, 0.25, 0.25, 0.25}
	cache.Invalidate(x1)

	got := ev.Prob(cond.Clone())
	s = cache.Stats()
	if s.Hits != 3 || s.Misses != 3 {
		t.Fatalf("post-invalidation evaluation: stats %+v, want exactly one new hit and one new miss", s)
	}
	if s.Invalidated != 1 {
		t.Fatalf("Invalidated = %d, want 1", s.Invalidated)
	}

	fresh := NewEvaluator(dists)
	if want := fresh.Prob(cond.Clone()); got != want {
		t.Fatalf("post-invalidation Prob = %v, want %v (fresh evaluation)", got, want)
	}

	// The recomputed entry must be live again: one more evaluation is all
	// hits.
	ev.Prob(cond.Clone())
	if s = cache.Stats(); s.Hits != 5 || s.Misses != 3 {
		t.Fatalf("re-cached evaluation: stats %+v, want two new hits", s)
	}
}

// TestStaleEntryServedNever checks the dangerous direction explicitly: a
// lookup after Invalidate must not return the pre-invalidation value even
// though the fingerprint is unchanged — neither from the cache itself nor
// from a shared tier (ComponentCache.Shared) still holding the
// base-posterior value — and nothing computed over an invalidated
// variable may reach the tier. It then runs an evaluator over a tier a
// second evaluator pre-filled: every value must be bit-equal to a run
// without the tier, and at one worker the evaluator's own cache must hold
// and count exactly what it would without the tier.
func TestStaleEntryServedNever(t *testing.T) {
	for _, withTier := range []bool{false, true} {
		cond, dists, x1, x2 := twoComponentCondition()
		base := Dists{}
		for x, d := range dists {
			base[x] = d
		}
		cache := NewComponentCache(0)
		var tier *ComponentCache
		if withTier {
			tier = NewComponentCache(0)
			filler := &Evaluator{Dists: base, Cache: NewComponentCache(0)}
			filler.Cache.Shared = tier
			filler.Prob(cond.Clone())
			cache.Shared = tier
		}
		ev := &Evaluator{Dists: dists, Cache: cache}

		before := ev.Prob(cond.Clone())
		dists[x1] = []float64{0, 0, 0, 0.5, 0.5}
		dists[x2] = []float64{0, 0, 0, 0, 0.5, 0.5}
		cache.Invalidate(x1, x2)
		after := ev.Prob(cond.Clone())
		if after == before {
			t.Fatalf("tier=%v: Prob unchanged (%v) after renormalising both components", withTier, after)
		}
		if want := NewEvaluator(dists).Prob(cond.Clone()); after != want {
			t.Fatalf("tier=%v: post-invalidation Prob = %v, want %v", withTier, after, want)
		}
		if !withTier {
			continue
		}
		// Both components came from the tier before the answers, and
		// neither after them.
		if s := cache.Stats(); s.SharedHits != 2 {
			t.Fatalf("shared hits %d, want 2 (both components before Invalidate, none after): %+v", s.SharedHits, s)
		}
		// A new component over an invalidated variable stays out of the
		// tier too, even next to a variable still at epoch 0.
		ev.Prob(ctable.FromClauses([][]ctable.Expr{
			{ctable.GTConst(x1, 2)},
			{ctable.GTVar(x1, v(1, 0))},
		}))
		if n := tier.Len(); n != 2 {
			t.Fatalf("tier holds %d entries, want the 2 base-posterior components", n)
		}
		// The tier still serves the base-posterior values.
		fresh := &Evaluator{Dists: base, Cache: NewComponentCache(0)}
		fresh.Cache.Shared = tier
		if got := fresh.Prob(cond.Clone()); got != before {
			t.Fatalf("base-posterior Prob through the tier = %v, want %v", got, before)
		}
		if s := fresh.Cache.Stats(); s.SharedHits != 2 {
			t.Fatalf("fresh run over the tier: %d shared hits, want 2", s.SharedHits)
		}
	}

	// An evaluator over a tier a second evaluator pre-filled, against one
	// without a tier: the same Prob fan-outs and planned scans, before and
	// after a batch of renormalised variables. The filler plans sweeps for
	// every candidate; the measured runs plan at most two for odd
	// conditions — below marginalsThreshold, where they re-solve instead,
	// so a tier vector served there would change their path.
	rng := rand.New(rand.NewSource(23))
	base := Dists{}
	conds := make([]*ctable.Condition, 40)
	for i := range conds {
		conds[i] = ctable.FromClauses(randClauses(rng, 5+rng.Intn(6), base))
	}
	changed := map[ctable.Var][]float64{}
	for x, d := range base {
		if x.Obj%3 == 0 {
			changed[x] = randomDist(rand.New(rand.NewSource(int64(x.Obj))), len(d))
		}
	}
	session := func(tier *ComponentCache, fill bool) (*ComponentCache, []float64) {
		dists := Dists{}
		for x, d := range base {
			dists[x] = d
		}
		ev := &Evaluator{Dists: dists, Cache: NewComponentCache(0)}
		ev.Cache.Shared = tier
		var out []float64
		pass := func() {
			probs := ev.ProbAll(conds, 1)
			out = append(out, probs...)
			for i, c := range conds {
				scan := ev.NewCondScan(c, probs[i])
				exprs := c.Exprs()
				if !fill && i%2 == 1 && len(exprs) > 2 {
					scan.PlanSweeps(exprs[:2])
				} else {
					scan.PlanSweeps(exprs)
				}
				for _, e := range exprs {
					pe, pPhi, pTrue, pFalse := scan.CondProbs(e)
					out = append(out, pe, pPhi, pTrue, pFalse)
				}
			}
		}
		pass()
		var bumped []ctable.Var
		for x, d := range changed {
			dists[x] = d
			bumped = append(bumped, x)
		}
		ev.Cache.Invalidate(bumped...)
		pass()
		return ev.Cache, out
	}
	tier := NewComponentCache(0)
	session(tier, true)
	plain, want := session(nil, false)
	tiered, got := session(tier, false)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: %v over the tier, %v without", i, got[i], want[i])
		}
	}
	gs, ws := tiered.Stats(), plain.Stats()
	if gs.SharedHits == 0 {
		t.Fatalf("no shared hits over a pre-filled tier: %+v", gs)
	}
	gs.SharedHits = 0
	if gs != ws || tiered.Len() != plain.Len() {
		t.Fatalf("own cache differs with the tier: %+v, %d entries; without: %+v, %d entries",
			tiered.Stats(), tiered.Len(), ws, plain.Len())
	}
}

// TestCacheEviction checks the size bound: a capped cache never exceeds
// its per-shard budget and reports evictions once distinct components
// outnumber the cap.
func TestCacheEviction(t *testing.T) {
	cache := NewComponentCache(32)
	dists := Dists{}
	ev := &Evaluator{Dists: dists, Cache: cache}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		cond := ctable.FromClauses(randClauses(rng, 4, dists))
		ev.Prob(cond)
	}
	if n := cache.Len(); n > 32 {
		t.Fatalf("cache holds %d entries, cap 32", n)
	}
	if s := cache.Stats(); s.Evicted == 0 {
		t.Fatalf("no evictions after 300 distinct conditions: %+v", s)
	}
}

// TestCacheConcurrentProbAll exercises shared-cache lookups and stores
// from parallel fan-outs (meaningful under -race) — two evaluators at once,
// each fanning out over its own cache, both falling through to one shared
// tier — and checks the fanned results match a sequential cacheless
// evaluation exactly.
func TestCacheConcurrentProbAll(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	dists := Dists{}
	conds := make([]*ctable.Condition, 60)
	for i := range conds {
		conds[i] = ctable.FromClauses(randClauses(rng, 5+rng.Intn(6), dists))
	}
	plain := &Evaluator{Dists: dists}
	want := plain.ProbAll(conds, 1)

	tier := NewComponentCache(0)
	evs := make([]*Evaluator, 2)
	for i := range evs {
		evs[i] = &Evaluator{Dists: dists, Cache: NewComponentCache(0)}
		evs[i].Cache.Shared = tier
	}
	var wg sync.WaitGroup
	for _, cached := range evs {
		wg.Add(1)
		go func(cached *Evaluator) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				got := cached.ProbAll(conds, 8)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("round %d cond %d: cached %v vs uncached %v", round, i, got[i], want[i])
						return
					}
				}
			}
		}(cached)
	}
	wg.Wait()
	for _, cached := range evs {
		if s := cached.Cache.Stats(); s.Hits == 0 {
			t.Fatalf("no cache hits across repeated fan-outs: %+v", s)
		}
	}
	if tier.Len() == 0 {
		t.Fatal("no fan-out published to the shared tier")
	}
}
