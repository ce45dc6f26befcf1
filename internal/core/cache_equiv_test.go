package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
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

// cycleSpec is one query of a spec cycle on one model.
type cycleSpec struct {
	strat Strategy
	seed  int64
}

// cycleSpecs is an FBS/UBS/HHS cycle of queries that differ in strategy
// and seed but share a model.
var cycleSpecs = []cycleSpec{{FBS, 1}, {UBS, 1}, {HHS, 1}, {UBS, 2}, {HHS, 2}, {FBS, 2}}

// cycleEnv is the dataset, truth and posteriors a spec cycle runs on.
func cycleEnv(t testing.TB) (d, truth *dataset.Dataset, base prob.Dists) {
	t.Helper()
	rng := rand.New(rand.NewSource(4))
	truth = dataset.GenNBA(rng, 150)
	d = truth.InjectMissing(rng, 0.2)
	base, err := Preprocess(d, Options{MarginalsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	return d, truth, base
}

// cycleOpts are the run options of one spec of the cycle.
func cycleOpts(sp cycleSpec, workers int) Options {
	return Options{
		Alpha: 0.05, Budget: 30, Latency: 5, Strategy: sp.strat, M: 3,
		Workers: workers, Rng: rand.New(rand.NewSource(sp.seed)),
	}
}

// tracedRun runs one spec on m and returns its result and trace bytes.
func tracedRun(t *testing.T, d, truth *dataset.Dataset, m *Model, base prob.Dists, sp cycleSpec, workers int) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewTrace(&buf)
	opt := cycleOpts(sp, workers)
	opt.Trace = obs.NewRecorder(sink)
	res, err := RunModel(d, m, base, crowd.NewSimulated(truth, 1.0, nil), opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestModelCacheWarmMatchesCold checks that the model's cache is pure
// speed: each spec of a cycle, run on a model whose cache the other
// specs warmed — in forward and in reverse order, at one and at four
// workers — returns what it returns on a cold model, bit for bit:
// answers, final probabilities, counters and trace bytes.
func TestModelCacheWarmMatchesCold(t *testing.T) {
	d, truth, base := cycleEnv(t)
	for _, workers := range []int{1, 4} {
		type cold struct {
			res   *Result
			trace []byte
		}
		want := make([]cold, len(cycleSpecs))
		var coldMisses, warmMisses uint64
		for i, sp := range cycleSpecs {
			m := BuildModel(d, base, cycleOpts(sp, workers))
			res, trace := tracedRun(t, d, truth, m, base, sp, workers)
			want[i] = cold{res, trace}
			coldMisses += res.Cache.Misses
		}
		for _, reverse := range []bool{false, true} {
			m := BuildModel(d, base, cycleOpts(cycleSpecs[0], workers))
			for k := range cycleSpecs {
				i := k
				if reverse {
					i = len(cycleSpecs) - 1 - k
				}
				sp := cycleSpecs[i]
				got, trace := tracedRun(t, d, truth, m, base, sp, workers)
				if !reverse {
					warmMisses += got.Cache.Misses
				}
				w := want[i].res
				if !reflect.DeepEqual(stripVolatile(got), stripVolatile(w)) {
					t.Errorf("workers %d reverse %v %v seed %d: result differs on a warm model", workers, reverse, sp.strat, sp.seed)
				}
				for o, p := range w.Probs {
					if math.Float64bits(got.Probs[o]) != math.Float64bits(p) {
						t.Errorf("workers %d reverse %v %v seed %d: Pr(φ(o%d)) = %v warm, %v cold",
							workers, reverse, sp.strat, sp.seed, o, got.Probs[o], p)
					}
				}
				if !bytes.Equal(trace, want[i].trace) {
					t.Errorf("workers %d reverse %v %v seed %d: trace differs on a warm model", workers, reverse, sp.strat, sp.seed)
				}
			}
		}
		if warmMisses >= coldMisses {
			t.Errorf("workers %d: the cycle missed %d times on one model, %d times on cold models; want fewer", workers, warmMisses, coldMisses)
		}
	}
}

// TestModelCacheReuse checks that a run repeating an earlier run on the
// same model finds every component it needs in the model's cache.
func TestModelCacheReuse(t *testing.T) {
	d, truth, base := cycleEnv(t)
	for _, sp := range cycleSpecs[:3] {
		m := BuildModel(d, base, cycleOpts(sp, 1))
		first, _ := tracedRun(t, d, truth, m, base, sp, 1)
		again, _ := tracedRun(t, d, truth, m, base, sp, 1)
		if first.Cache.Misses == 0 || again.Cache.Hits == 0 {
			t.Fatalf("%v: first run %+v, repeat %+v; want misses on the first and hits on the repeat", sp.strat, first.Cache, again.Cache)
		}
		if again.Cache.Misses != 0 {
			t.Errorf("%v: the repeated run missed %d times, want 0", sp.strat, again.Cache.Misses)
		}
	}
}

// TestConcurrentRunsCountOwnLookups checks that a run's cache counters
// cover its own lookups only: two runs on one model at the same time
// move the registry's cache.hits and cache.misses by exactly the sum of
// their Result.Cache counters.
func TestConcurrentRunsCountOwnLookups(t *testing.T) {
	d, truth, base := cycleEnv(t)
	reg := obs.NewRegistry()
	opt := cycleOpts(cycleSpecs[0], 2)
	opt.Metrics = reg
	m := BuildModel(d, base, opt)
	hits0, misses0 := reg.Counter("cache.hits").Value(), reg.Counter("cache.misses").Value()

	specs := []cycleSpec{{UBS, 1}, {HHS, 2}}
	results := make([]*Result, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func(i int, sp cycleSpec) {
			defer wg.Done()
			opt := cycleOpts(sp, 2)
			opt.Metrics = reg
			res, err := RunModel(d, m, base, crowd.NewSimulated(truth, 1.0, nil), opt)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i, sp)
	}
	wg.Wait()
	var hits, misses int64
	for _, res := range results {
		if res == nil {
			t.FailNow()
		}
		hits += int64(res.Cache.Hits)
		misses += int64(res.Cache.Misses)
	}
	if got := reg.Counter("cache.hits").Value() - hits0; got != hits {
		t.Errorf("cache.hits moved by %d, the runs report %d hits", got, hits)
	}
	if got := reg.Counter("cache.misses").Value() - misses0; got != misses {
		t.Errorf("cache.misses moved by %d, the runs report %d misses", got, misses)
	}
}

// TestRunModelChecksModelOptions checks that RunModel refuses a run whose
// Alpha or ApproxThreshold differs from the model's: the model's c-table,
// its Pr(φ) and its component cache were all made under those values,
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

// BenchmarkModelQueryCycle runs the spec cycle twice on one model per
// iteration and reports the second pass's cache misses per iteration:
// the work the model's cache leaves to a repeated query mix.
func BenchmarkModelQueryCycle(b *testing.B) {
	d, truth, base := cycleEnv(b)
	var misses uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := BuildModel(d, base, cycleOpts(cycleSpecs[0], 1))
		for pass := 0; pass < 2; pass++ {
			for _, sp := range cycleSpecs {
				res, err := RunModel(d, m, base, crowd.NewSimulated(truth, 1.0, nil), cycleOpts(sp, 1))
				if err != nil {
					b.Fatal(err)
				}
				if pass == 1 {
					misses += res.Cache.Misses
				}
			}
		}
	}
	b.ReportMetric(float64(misses)/float64(b.N), "misses/2nd-pass")
}

// BenchmarkWarmQuery times a warm query of e2ebench's svc-mixed shape —
// n=2000, 10% missing, α 0.01, budget 40, latency 5, a cycle of 24
// FBS/UBS/HHS specs (M 5) — on one model at one worker, after one
// untimed pass over the cycle. The model's cache then serves every
// Pr(φ) the queries need, so what it measures is the per-query
// bookkeeping: it reports ns/query, allocs/query, lookups/query — the
// component-cache hits plus misses per query, exact at one worker where
// allocs/query is not — and the cache misses of each timed pass, which
// must read 0.
func BenchmarkWarmQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	truth := dataset.GenNBA(rng, 2000)
	d := truth.InjectMissing(rng, 0.10)
	base, err := Preprocess(d, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	strategies := []Strategy{FBS, UBS, HHS}
	spec := func(i int) Options {
		return Options{
			Alpha: 0.01, Budget: 40, Latency: 5, Strategy: strategies[i%len(strategies)], M: 5,
			Workers: 1, Rng: rand.New(rand.NewSource(int64(1 + i))),
		}
	}
	const cycle = 24
	m := BuildModel(d, base, spec(0))
	pass := func() (misses, lookups uint64) {
		for i := 0; i < cycle; i++ {
			res, err := RunModel(d, m, base, crowd.NewSimulated(truth, 1.0, nil), spec(i))
			if err != nil {
				b.Fatal(err)
			}
			misses += res.Cache.Misses
			lookups += res.Cache.Hits + res.Cache.Misses
		}
		return misses, lookups
	}
	pass()
	var misses, lookups uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, l := pass()
		misses, lookups = misses+m, lookups+l
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	queries := float64(b.N * cycle)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/queries, "ns/query")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/queries, "allocs/query")
	b.ReportMetric(float64(lookups)/queries, "lookups/query")
	b.ReportMetric(float64(misses)/float64(b.N), "misses/2nd-pass")
}
