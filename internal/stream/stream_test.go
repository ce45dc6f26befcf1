package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/dataset"
)

func testAttrs(rng *rand.Rand) []dataset.Attribute {
	n := 2 + rng.Intn(3)
	attrs := make([]dataset.Attribute, n)
	for j := range attrs {
		attrs[j] = dataset.Attribute{Name: fmt.Sprintf("a%d", j+1), Levels: 2 + rng.Intn(5)}
	}
	return attrs
}

func randCells(rng *rand.Rand, attrs []dataset.Attribute, missRate float64) []dataset.Cell {
	cells := make([]dataset.Cell, len(attrs))
	for j, a := range attrs {
		if rng.Float64() < missRate {
			cells[j] = dataset.Unknown()
		} else {
			cells[j] = dataset.Known(rng.Intn(a.Levels))
		}
	}
	return cells
}

// script is a pre-drawn arrival schedule, so every engine under
// comparison consumes the identical stream.
type script struct {
	attrs []dataset.Attribute
	ticks [][][]dataset.Cell
}

func genScript(rng *rand.Rand, nTicks int) script {
	attrs := testAttrs(rng)
	miss := 0.1 + rng.Float64()*0.3
	ticks := make([][][]dataset.Cell, nTicks)
	for t := range ticks {
		batch := make([][]dataset.Cell, 1+rng.Intn(6))
		for i := range batch {
			batch[i] = randCells(rng, attrs, miss)
		}
		ticks[t] = batch
	}
	return script{attrs: attrs, ticks: ticks}
}

// TestIncrementalMatchesRebuildEveryTick is the PR's correctness anchor:
// the incremental engine and the rebuild-per-tick baseline produce the
// same answer sets, rankings and probabilities at every tick, at any
// worker count.
func TestIncrementalMatchesRebuildEveryTick(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 4; trial++ {
		sc := genScript(rng, 25)
		window := Window{Count: 12 + rng.Intn(10)}
		for _, workers := range []int{1, 4} {
			mk := func(rebuild bool) *Engine {
				e, err := New(Config{
					Attrs:   sc.attrs,
					Window:  window,
					TopK:    5,
					Workers: workers,
					Rebuild: rebuild,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			inc, reb := mk(false), mk(true)
			for tick, batch := range sc.ticks {
				now := int64(tick)
				ri := inc.Tick(now, batch)
				rr := reb.Tick(now, batch)
				tag := fmt.Sprintf("trial %d workers=%d tick %d", trial, workers, tick)
				if !reflect.DeepEqual(ri.Inserted, rr.Inserted) {
					t.Fatalf("%s: inserted %v vs %v", tag, ri.Inserted, rr.Inserted)
				}
				if !reflect.DeepEqual(ri.Evicted, rr.Evicted) {
					t.Fatalf("%s: evicted %v vs %v", tag, ri.Evicted, rr.Evicted)
				}
				if !reflect.DeepEqual(ri.Answers, rr.Answers) {
					t.Fatalf("%s: answer sets differ\n incremental: %v\n rebuild:     %v", tag, ri.Answers, rr.Answers)
				}
				si, sr := inc.Snapshot(), reb.Snapshot()
				if len(si) != len(sr) {
					t.Fatalf("%s: snapshot sizes %d vs %d", tag, len(si), len(sr))
				}
				for i := range si {
					if si[i].ID != sr[i].ID || math.Abs(si[i].P-sr[i].P) > 1e-9 {
						t.Fatalf("%s: Pr(φ) diverges at %v vs %v", tag, si[i], sr[i])
					}
				}
				if !reflect.DeepEqual(ri.TopK, rr.TopK) {
					t.Fatalf("%s: rankings differ\n incremental: %v\n rebuild:     %v", tag, ri.TopK, rr.TopK)
				}
			}
		}
	}
}

// TestWorkerCountInvariance pins the fan-out determinism contract on the
// incremental engine itself: snapshots are bit-identical at any worker
// count.
func TestWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	sc := genScript(rng, 20)
	mk := func(workers int) *Engine {
		e, err := New(Config{Attrs: sc.attrs, Window: Window{Count: 16}, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq, par := mk(1), mk(8)
	for tick, batch := range sc.ticks {
		seq.Tick(int64(tick), batch)
		par.Tick(int64(tick), batch)
		if !reflect.DeepEqual(seq.Snapshot(), par.Snapshot()) {
			t.Fatalf("tick %d: snapshots differ between workers=1 and workers=8", tick)
		}
	}
}

// TestCacheInvarianceAndInvalidation checks that the cache changes no
// probability and that evictions actually drop the dead entries, as the
// per-tick and the cumulative counts agree.
func TestCacheInvarianceAndInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	sc := genScript(rng, 20)
	mk := func(noCache bool) *Engine {
		e, err := New(Config{Attrs: sc.attrs, Window: Window{Count: 10}, NoCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	cached, plain := mk(false), mk(true)
	invalidated := 0
	for tick, batch := range sc.ticks {
		rc := cached.Tick(int64(tick), batch)
		plain.Tick(int64(tick), batch)
		if !reflect.DeepEqual(cached.Snapshot(), plain.Snapshot()) {
			t.Fatalf("tick %d: cache changed a probability", tick)
		}
		invalidated += rc.InvalidatedEntries
	}
	stats := cached.CacheStats()
	if stats.InvalidatedEntries != uint64(invalidated) {
		t.Fatalf("per-tick invalidation counts sum to %d, stats say %d", invalidated, stats.InvalidatedEntries)
	}
	if invalidated == 0 {
		t.Fatal("a sliding window run never dropped a cache entry")
	}
}

func TestCountWindowNeverOverflows(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	attrs := testAttrs(rng)
	e, err := New(Config{Attrs: attrs, Window: Window{Count: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 30; tick++ {
		batch := make([][]dataset.Cell, 1+rng.Intn(4))
		for i := range batch {
			batch[i] = randCells(rng, attrs, 0.2)
		}
		e.Tick(int64(tick), batch)
		if e.Len() > 7 {
			t.Fatalf("tick %d: window holds %d objects, bound is 7", tick, e.Len())
		}
	}
}

func TestSpanWindowExpiresByAge(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	attrs := testAttrs(rng)
	e, err := New(Config{Attrs: attrs, Window: Window{Span: 5}})
	if err != nil {
		t.Fatal(err)
	}
	var first int
	r := e.Tick(0, [][]dataset.Cell{randCells(rng, attrs, 0.2)})
	first = r.Inserted[0]
	e.Tick(3, [][]dataset.Cell{randCells(rng, attrs, 0.2)})
	r = e.Tick(5, [][]dataset.Cell{randCells(rng, attrs, 0.2)})
	if len(r.Evicted) != 1 || r.Evicted[0] != first {
		t.Fatalf("tick at t=5 evicted %v, want [%d] (the t=0 arrival, span 5)", r.Evicted, first)
	}
	if e.Len() != 2 {
		t.Fatalf("Len = %d, want 2", e.Len())
	}
}

func TestTimeMustNotGoBackwards(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	attrs := testAttrs(rng)
	e, err := New(Config{Attrs: attrs, Window: Window{Count: 4}})
	if err != nil {
		t.Fatal(err)
	}
	e.Tick(10, [][]dataset.Cell{randCells(rng, attrs, 0.2)})
	defer func() {
		if recover() == nil {
			t.Fatal("Tick accepted a timestamp in the past")
		}
	}()
	e.Tick(9, nil)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty schema")
	}
	if _, err := New(Config{Attrs: []dataset.Attribute{{Name: "a", Levels: 2}}, Window: Window{Count: -1}}); err == nil {
		t.Fatal("New accepted a negative window bound")
	}
}
