package prob

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
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

		for _, cl := range cond.Clauses() {
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
			for _, cl := range cond.Clauses() {
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

// checkQueue asserts that every shard's eviction queue holds exactly the
// shard's live keys, each once.
func checkQueue(t *testing.T, c *ComponentCache) {
	t.Helper()
	queued := 0
	for i := range c.shards {
		sh := &c.shards[i]
		seen := map[*cacheEntry]bool{}
		for _, e := range sh.fifo {
			if live := sh.m.find(e.key, []byte(e.shape)) == e; !live || seen[e] {
				t.Fatalf("shard %d queues %x: live %v, repeated %v", i, e.key, live, seen[e])
			}
			seen[e] = true
		}
		chained := 0
		for _, head := range sh.m {
			for e := head; e != nil; e = e.next {
				chained++
			}
		}
		if chained != len(sh.fifo) {
			t.Fatalf("shard %d chains %d entries, queues %d", i, chained, len(sh.fifo))
		}
		queued += len(sh.fifo)
	}
	if n := c.Len(); queued != n {
		t.Fatalf("%d keys queued, %d entries live", queued, n)
	}
}

// TestDropPrecision checks that Drop removes exactly the entries
// mentioning a dead variable: with both components of a condition
// cached and swept, dropping one component's variable removes its
// scalar and sweep entries and its planned vector, and nothing else —
// re-evaluation still hits the other component.
func TestDropPrecision(t *testing.T) {
	cond, dists, x1, x2 := twoComponentCondition()
	cache := NewComponentCache(0)
	ev := &Evaluator{Dists: dists, Cache: cache}

	p := ev.Prob(cond.Clone())
	// Three constant-comparison candidates per component clear
	// marginalsThreshold, so both components get a planned sweep vector.
	scan := ev.NewCondScan(cond, p)
	scan.PlanSweeps([]ctable.Expr{
		ctable.GTConst(x1, 0), ctable.GTConst(x1, 1), ctable.LTConst(x1, 3),
		ctable.GTConst(x2, 0), ctable.GTConst(x2, 2), ctable.LTConst(x2, 4),
	})
	if n := cache.Len(); n != 4 {
		t.Fatalf("cache holds %d entries, want 4 (a scalar and a sweep vector per component)", n)
	}
	if n := len(ev.planned); n != 2 {
		t.Fatalf("%d planned vectors, want 2", n)
	}

	if n := ev.Drop(func(v ctable.Var) bool { return v == x1 }); n != 2 {
		t.Fatalf("Drop removed %d entries, want 2", n)
	}
	checkQueue(t, cache)
	if n := cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries after Drop, want 2", n)
	}
	if s := ev.CacheStats(); s.InvalidatedEntries != 2 {
		t.Fatalf("InvalidatedEntries = %d, want 2", s.InvalidatedEntries)
	}
	for k, e := range ev.planned {
		if shapeMentions(e.shape, func(v ctable.Var) bool { return v == x1 }) {
			t.Fatalf("planned vector %x mentions the dropped variable", k)
		}
	}
	if n := len(ev.planned); n != 1 {
		t.Fatalf("%d planned vectors after Drop, want 1", n)
	}

	before := ev.CacheStats()
	if got := ev.Prob(cond.Clone()); got != p {
		t.Fatalf("Prob after Drop = %v, want %v", got, p)
	}
	s := ev.CacheStats()
	if s.Hits-before.Hits != 1 || s.Misses-before.Misses != 1 {
		t.Fatalf("evaluation after Drop: %d hits, %d misses, want one of each",
			s.Hits-before.Hits, s.Misses-before.Misses)
	}
}

// TestStaleEntryServedNever checks the dangerous direction explicitly:
// after Narrow changes both components' distributions, with no Drop
// call, a lookup must not return the old value even though the clause
// structure is unchanged — the keys carry the narrowing.
func TestStaleEntryServedNever(t *testing.T) {
	cond, dists, x1, x2 := twoComponentCondition()
	ev := &Evaluator{Dists: dists, Cache: NewComponentCache(0)}

	before := ev.Prob(cond.Clone())
	ev.Narrow(x1, Interval{Lo: 3, Hi: 4})
	ev.Narrow(x2, Interval{Lo: 4, Hi: 5})
	after := ev.Prob(cond.Clone())
	if after == before {
		t.Fatalf("Prob unchanged (%v) after renormalising both components", after)
	}
	if want := (&Evaluator{IDs: ev.IDs, Vars: ev.Vars}).Prob(cond.Clone()); after != want {
		t.Fatalf("post-renormalisation Prob = %v, want %v", after, want)
	}
}

// narrowedEvaluator returns an evaluator over base, numbered, with the
// given variables narrowed, sharing cache (nil for none).
func narrowedEvaluator(base Dists, narrowed map[ctable.Var]Interval, cache *ComponentCache) *Evaluator {
	ev := &Evaluator{Dists: base, Cache: cache}
	ev.number()
	for x, iv := range narrowed {
		ev.Narrow(x, iv)
	}
	return ev
}

// TestNarrowingKeysPure checks that a cache under narrowing keys is a
// pure function of its keys: evaluators sharing one cache narrow one
// variable to different intervals — including the whole domain, whose
// renormalised slice need not equal the base slice — and each returns,
// bit for bit, what an uncached evaluator over its distributions does,
// for Prob and for planned scans, whatever order they run in.
func TestNarrowingKeysPure(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		base := Dists{}
		cond := ctable.FromClauses(randClauses(rng, 5+rng.Intn(6), base))
		exprs := cond.Exprs()
		x := exprs[0].X
		n := len(base[x])
		settings := []map[ctable.Var]Interval{
			{},
			{x: {Lo: 0, Hi: n - 1}},
			{x: {Lo: 1, Hi: n - 1}},
			{x: {Lo: 0, Hi: n / 2}},
		}
		values := func(ev *Evaluator) []float64 {
			p := ev.Prob(cond.Clone())
			out := []float64{p}
			scan := ev.NewCondScan(cond, p)
			scan.PlanSweeps(exprs)
			for _, e := range exprs {
				pe, pPhi, pTrue, pFalse := scan.CondProbs(e)
				out = append(out, pe, pPhi, pTrue, pFalse)
			}
			return out
		}
		want := make([][]float64, len(settings))
		for i, nw := range settings {
			want[i] = values(narrowedEvaluator(base, nw, nil))
		}
		cache := NewComponentCache(0)
		for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}} {
			for _, i := range order {
				got := values(narrowedEvaluator(base, settings[i], cache))
				for j := range got {
					if math.Float64bits(got[j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("trial %d, narrowing %v, value %d: %v on the shared cache, %v uncached",
							trial, settings[i], j, got[j], want[i][j])
					}
				}
			}
		}
	}
}

// TestMergedCanonMatchesExprCompare checks the canonical order a probe
// builds by merging a unit clause into the stored canonical orders of
// the components it touches: for random conditions and random probes,
// the merged clause list equals the touched clauses plus [e], each
// clause sorted by ctable.Expr.Compare and the clauses sorted
// lexicographically — the order the cache keys and the engine branch
// on — and its hash is the FNV-1a of that list's encoding.
func TestMergedCanonMatchesExprCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		dists := Dists{}
		cond := ctable.FromClauses(randClauses(rng, 4+rng.Intn(8), dists))
		if _, decided := cond.Decided(); decided {
			continue
		}
		vars := cond.Vars()
		ev := NewEvaluator(dists)
		for i := 0; i < 20; i++ {
			x, y := vars[rng.Intn(len(vars))], vars[rng.Intn(len(vars))]
			e := ctable.LTConst(x, rng.Intn(4))
			if x != y && rng.Intn(2) == 0 {
				e = ctable.GTVar(x, y)
			}
			s := ev.solverFor(cond, 2)
			u := s.unitLit(e)
			comps := s.touched(u, nil)
			got := s.mergedClauses(comps, u)

			all := cond.Clauses()
			want := [][]ctable.Expr{{e}}
			for _, g := range comps {
				for _, ci := range cond.Component(g).Canon {
					want = append(want, slices.Clone(all[ci]))
				}
			}
			for _, cl := range want {
				slices.SortFunc(cl, ctable.Expr.Compare)
			}
			slices.SortFunc(want, func(a, b []ctable.Expr) int {
				for k := 0; k < len(a) && k < len(b); k++ {
					if c := a[k].Compare(b[k]); c != 0 {
						return c
					}
				}
				return len(a) - len(b)
			})
			if len(got) != len(want) {
				t.Fatalf("trial %d: merged %d clauses, want %d", trial, len(got), len(want))
			}
			key := []byte{'P'}
			for k, cl := range got {
				key = binary.AppendUvarint(key, uint64(len(cl)))
				if len(cl) != len(want[k]) {
					t.Fatalf("trial %d, clause %d: %d literals, want %d", trial, k, len(cl), len(want[k]))
				}
				for j, l := range cl {
					if s.exprOf(l) != want[k][j] {
						t.Fatalf("trial %d, clause %d: literal %d is %v, want %v", trial, k, j, s.exprOf(l), want[k][j])
					}
					key = want[k][j].AppendKey(key)
				}
			}
			h := fnv.New64a()
			h.Write(key)
			if got := s.structHash(got); got != h.Sum64() {
				t.Fatalf("trial %d: merged hash %x, FNV-1a of the encoding %x", trial, got, h.Sum64())
			}
			s.release()
		}
	}
}

// TestSweepRuleOwnPlansOnly checks the sweep-path rule of a shared
// cache: below marginalsThreshold a scan prices candidates by partial
// sums only over vectors its own evaluator planned, never over vectors
// another evaluator left in the cache, since the partial-sum and the
// re-solve path agree only within 1e-12. An evaluator on a cache another
// evaluator swept runs a sequence of scans — below the gate, past it,
// below it again — and every value matches, bit for bit, the same
// sequence on a cold cache.
func TestSweepRuleOwnPlansOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	base := Dists{}
	conds := make([]*ctable.Condition, 40)
	for i := range conds {
		conds[i] = ctable.FromClauses(randClauses(rng, 5+rng.Intn(6), base))
	}
	session := func(cache *ComponentCache) []float64 {
		ev := narrowedEvaluator(base, map[ctable.Var]Interval{}, cache)
		var out []float64
		for _, c := range conds {
			p := ev.Prob(c)
			exprs := c.Exprs()
			few := exprs[:min(len(exprs), marginalsThreshold-1)]
			for _, plan := range [][]ctable.Expr{few, exprs, few} {
				scan := ev.NewCondScan(c, p)
				scan.PlanSweeps(plan)
				for _, e := range exprs {
					pe, pPhi, pTrue, pFalse := scan.CondProbs(e)
					out = append(out, pe, pPhi, pTrue, pFalse)
				}
			}
		}
		return out
	}
	want := session(NewComponentCache(0))

	swept := NewComponentCache(0)
	filler := narrowedEvaluator(base, map[ctable.Var]Interval{}, swept)
	for _, c := range conds {
		filler.NewCondScan(c, filler.Prob(c)).PlanSweeps(c.Exprs())
	}
	got := session(swept)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: %v on the swept cache, %v on a cold one", i, got[i], want[i])
		}
	}
}

// TestCacheEviction checks the size bound: a capped cache never exceeds
// its per-shard budget, reports evictions once distinct components
// outnumber the cap, and queues exactly its live keys.
func TestCacheEviction(t *testing.T) {
	cache := NewComponentCache(32)
	dists := Dists{}
	rng := rand.New(rand.NewSource(3))
	conds := make([]*ctable.Condition, 300)
	for i := range conds {
		conds[i] = ctable.FromClauses(randClauses(rng, 4, dists))
	}
	ev := &Evaluator{Dists: dists, Cache: cache}
	for _, cond := range conds {
		ev.Prob(cond)
	}
	if n := cache.Len(); n > 32 {
		t.Fatalf("cache holds %d entries, cap 32", n)
	}
	if s := ev.CacheStats(); s.Evicted == 0 {
		t.Fatalf("no evictions after 300 distinct conditions: %+v", s)
	}
	checkQueue(t, cache)
}

// TestCacheConcurrentProbAll exercises shared-cache lookups and stores
// from parallel fan-outs (meaningful under -race): two evaluators at
// once, each fanning out over one cache under narrowing keys, one at the
// base distributions and one with a third of the variables narrowed,
// must each match a sequential cacheless evaluation exactly.
func TestCacheConcurrentProbAll(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	base := Dists{}
	conds := make([]*ctable.Condition, 60)
	for i := range conds {
		conds[i] = ctable.FromClauses(randClauses(rng, 5+rng.Intn(6), base))
	}
	narrowed := map[ctable.Var]Interval{}
	for x, d := range base {
		if x.Obj%3 == 0 {
			narrowed[x] = Interval{Lo: 1, Hi: len(d) - 1}
		}
	}
	settings := []map[ctable.Var]Interval{{}, narrowed}

	cache := NewComponentCache(0)
	evs := make([]*Evaluator, len(settings))
	for i, nw := range settings {
		evs[i] = narrowedEvaluator(base, nw, cache)
	}
	var wg sync.WaitGroup
	for _, ev := range evs {
		wg.Add(1)
		go func(ev *Evaluator) {
			defer wg.Done()
			want := (&Evaluator{IDs: ev.IDs, Vars: ev.Vars}).ProbAll(conds, 1)
			for round := 0; round < 3; round++ {
				got := ev.ProbAll(conds, 8)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("round %d cond %d: cached %v vs uncached %v", round, i, got[i], want[i])
						return
					}
				}
			}
		}(ev)
	}
	wg.Wait()
	for _, ev := range evs {
		if s := ev.CacheStats(); s.Hits == 0 {
			t.Fatalf("no cache hits across repeated fan-outs: %+v", s)
		}
	}
}

// TestCacheCollisionsSafe maps every structural hash to one value, so
// every component key collides with every other of the same narrowing,
// and checks that cached Pr(φ), CondProbsWith and CondScan probes and
// sweep vectors over the NBA workloads still reproduce the frozen
// engine corpus — the cache-off values — bit for bit: a hit needs the
// exact shape and variables, never only the key.
func TestCacheCollisionsSafe(t *testing.T) {
	structHashHook = func(uint64) uint64 { return 1 }
	defer func() { structHashHook = nil }()
	conds, dists := nbaConditions(250, 0.2, 0.1, 7)
	checkCorpus(t, "nba", "colliding keys", corpusNBA(conds, dists, true, 1))
	conds, dists = nbaConditions(150, 0.25, 0.1, 5)
	phi, probes, sweeps := corpusCondProbs(conds, dists, true)
	checkCorpus(t, "condprob/phi", "colliding keys", phi)
	checkCorpus(t, "condprob/probe", "colliding keys", probes)
	checkCorpus(t, "condprob/sweep", "colliding keys", sweeps)
}
