package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

// TestCacheEquivalence is the component cache's correctness gate: full
// framework runs with the cache on and off, over identical datasets,
// seeds, and strategies, must produce identical answer sets and final
// probabilities within 1e-12. The cached mode scores UBS/HHS candidates
// through the incremental component scan while NoCache re-solves the full
// formula per candidate (the legacy cost profile the cache experiment
// compares against); the two factor the same product in a different
// order, hence the 1e-12 tolerance rather than exact equality.
func TestCacheEquivalence(t *testing.T) {
	for _, strat := range []Strategy{FBS, UBS, HHS} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			truth := dataset.GenNBA(rng, 150)
			d := truth.InjectMissing(rng, 0.15)
			base, err := Preprocess(d, Options{MarginalsOnly: true, Budget: 1, Latency: 1})
			if err != nil {
				t.Fatal(err)
			}

			run := func(noCache bool) *Result {
				res, err := RunWithDists(d, base, crowd.NewSimulated(truth, 1.0, nil), Options{
					Alpha: 0.05, Budget: 30, Latency: 5, Strategy: strat, M: 3,
					NoCache: noCache, Workers: 1, Rng: rand.New(rand.NewSource(seed * 7)),
				})
				if err != nil {
					t.Fatalf("RunWithDists(NoCache=%v): %v", noCache, err)
				}
				return res
			}

			cached, plain := run(false), run(true)
			if cached.Cache.Hits == 0 {
				t.Errorf("%v seed %d: cached run recorded no cache hits: %+v", strat, seed, cached.Cache)
			}
			if plain.Cache != (prob.CacheStats{}) {
				t.Errorf("%v seed %d: NoCache run reports cache activity: %+v", strat, seed, plain.Cache)
			}
			if !reflect.DeepEqual(cached.Answers, plain.Answers) {
				t.Errorf("%v seed %d: answer sets differ between cache on and off\n on:  %v\n off: %v",
					strat, seed, cached.Answers, plain.Answers)
			}
			if len(cached.Probs) != len(plain.Probs) {
				t.Fatalf("%v seed %d: tracked-object sets differ: %d vs %d objects",
					strat, seed, len(cached.Probs), len(plain.Probs))
			}
			for o, p := range cached.Probs {
				q, ok := plain.Probs[o]
				if !ok {
					t.Fatalf("%v seed %d: object %d tracked only with cache on", strat, seed, o)
				}
				if math.Abs(p-q) > 1e-12 {
					t.Errorf("%v seed %d: Pr(φ(o%d)) drifts: cached %v vs uncached %v", strat, seed, o, p, q)
				}
			}
		}
	}
}

// TestCacheInvalidationWired checks the run loop actually invalidates: a
// run whose crowd answers renormalise distributions must report bumped
// variables, and the final probabilities must match the uncached truth —
// i.e. no stale component survived an answer (the dangerous failure mode
// a cache can introduce).
func TestCacheInvalidationWired(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	truth := dataset.GenNBA(rng, 200)
	d := truth.InjectMissing(rng, 0.25)
	res, err := Run(d, crowd.NewSimulated(truth, 1.0, nil), Options{
		Alpha: 0.05, Budget: 40, Latency: 5, Strategy: UBS,
		MarginalsOnly: true, Workers: 1, Rng: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache.Invalidated == 0 {
		t.Fatalf("run absorbed %d tasks but invalidated no variables: %+v", res.TasksPosted, res.Cache)
	}
	if res.Cache.Hits == 0 {
		t.Fatalf("run recorded no cache hits: %+v", res.Cache)
	}
}

// TestSharedTierInvisible checks the model's shared cache tier is pure
// speed: a run on a model whose tier earlier runs have warmed returns the
// result of a run with no tier at all, bit for bit, and its own cache
// holds and counts exactly what the tierless run's does — the tier only
// turns some of those misses into SharedHits instead of solves.
func TestSharedTierInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	truth := dataset.GenNBA(rng, 150)
	d := truth.InjectMissing(rng, 0.2)
	base, err := Preprocess(d, Options{MarginalsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := func(strat Strategy, seed int64) Options {
		opt, err := Options{
			Alpha: 0.05, Budget: 30, Latency: 5, Strategy: strat, M: 3,
			Workers: 1, Rng: rand.New(rand.NewSource(seed)),
		}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	m := BuildModel(d, base, opts(UBS, 1))
	bare := *m
	bare.tier = nil
	if m.tier == nil || m.tier.Len() == 0 {
		t.Fatal("the initial fan-out left the model's tier empty")
	}

	for _, strat := range []Strategy{FBS, UBS, HHS} {
		for seed := int64(1); seed <= 2; seed++ {
			want, err := crowdPhase(d, &bare, base, crowd.NewSimulated(truth, 1.0, nil), opts(strat, seed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := crowdPhase(d, m, base, crowd.NewSimulated(truth, 1.0, nil), opts(strat, seed))
			if err != nil {
				t.Fatal(err)
			}
			if got.Cache.SharedHits == 0 {
				t.Errorf("%v seed %d: no shared-tier hits on a warmed model: %+v", strat, seed, got.Cache)
			}
			if want.Cache.SharedHits != 0 {
				t.Errorf("%v seed %d: tierless run reports shared hits: %+v", strat, seed, want.Cache)
			}
			gotCache := got.Cache
			gotCache.SharedHits = 0
			if gotCache != want.Cache {
				t.Errorf("%v seed %d: run-tier counters differ with the tier\n got:  %+v\n want: %+v",
					strat, seed, got.Cache, want.Cache)
			}
			if !reflect.DeepEqual(stripVolatile(got), stripVolatile(want)) {
				t.Errorf("%v seed %d: result differs with the shared tier", strat, seed)
			}
		}
	}
}

// TestRunModelChecksModelOptions checks that RunModel refuses a run whose
// Alpha or ApproxThreshold differs from the model's: the model's c-table,
// its Pr(φ) and its shared cache tier were all made under those values,
// so such a run would silently answer a different query.
func TestRunModelChecksModelOptions(t *testing.T) {
	d := dataset.SampleMovies()
	base, err := Preprocess(d, Options{MarginalsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModel(d, base, Options{Alpha: 0.1, Workers: 1})
	run := func(opt Options) error {
		opt.Budget, opt.Latency, opt.Workers = 4, 2, 1
		_, err := RunModel(d, m, base, crowd.NewSimulated(sampleTruth(), 1.0, nil), opt)
		return err
	}
	if err := run(Options{Alpha: 0.1}); err != nil {
		t.Fatalf("RunModel with the model's options: %v", err)
	}
	for _, opt := range []Options{{Alpha: 0.2}, {Alpha: 0.1, ApproxThreshold: 3}} {
		if err := run(opt); err == nil {
			t.Errorf("RunModel accepted Alpha %v, ApproxThreshold %d on a model built at Alpha 0.1, ApproxThreshold 0",
				opt.Alpha, opt.ApproxThreshold)
		}
	}
}
