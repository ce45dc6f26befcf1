package prob

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
)

// nbaConditions builds a c-table over a generated NBA dataset and
// uniform per-variable distributions — a realistic clause-set mix of
// shared-variable CNFs for exercising the solver.
func nbaConditions(n int, missing, alpha float64, seed int64) ([]*ctable.Condition, Dists) {
	rng := rand.New(rand.NewSource(seed))
	truth := dataset.GenNBA(rng, n)
	d := truth.InjectMissing(rng, missing)
	ct := ctable.Build(d, ctable.BuildOptions{Alpha: alpha})
	dists := Dists{}
	var conds []*ctable.Condition
	for _, o := range ct.Undecided() {
		c := ct.Conds[o]
		conds = append(conds, c)
		for _, v := range c.Vars() {
			if _, ok := dists[v]; !ok {
				dists[v] = uniform(d.Attrs[v.Attr].Levels)
			}
		}
	}
	return conds, dists
}

// TestProbAllMatchesSequential asserts the parallel fan-out returns the
// exact floats of one-by-one sequential evaluation, at several worker
// counts.
func TestProbAllMatchesSequential(t *testing.T) {
	conds, dists := nbaConditions(250, 0.15, 0.1, 3)
	if len(conds) == 0 {
		t.Fatal("no undecided conditions generated")
	}
	ev := NewEvaluator(dists)
	want := make([]float64, len(conds))
	for i, c := range conds {
		want[i] = ev.Prob(c)
	}
	for _, workers := range []int{1, 2, 8, 33} {
		if got := ev.ProbAll(conds, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("ProbAll(workers=%d) differs from sequential evaluation", workers)
		}
	}
}

// TestSolverScratchReuse interleaves big and small conditions so pooled
// scratch is recycled across evaluations of very different variable
// counts, checking each result against the solver-free Naive enumerator.
// Stale epochs or assignment residue would surface as a wrong float.
func TestSolverScratchReuse(t *testing.T) {
	conds, dists := nbaConditions(120, 0.2, 0.2, 5)
	ev := NewEvaluator(dists)
	checked := 0
	for round := 0; round < 3; round++ {
		for _, c := range conds {
			if ev.StateSpace(c) > 1e5 {
				continue // Naive reference must stay cheap
			}
			got := ev.Prob(c)
			want := ev.Naive(c)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("round %d: Prob = %v, Naive = %v for %v", round, got, want, c)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no conditions small enough for the Naive reference")
	}
}

// TestEvaluatorConcurrentUse hammers one shared evaluator from many
// goroutines — the single-writer contract's read side. `go test -race`
// is the gate: pooled solver scratch must never leak between in-flight
// evaluations.
func TestEvaluatorConcurrentUse(t *testing.T) {
	conds, dists := nbaConditions(250, 0.15, 0.1, 7)
	ev := NewEvaluator(dists)
	want := ev.ProbAll(conds, 1)
	for rep := 0; rep < 5; rep++ {
		if got := ev.ProbAll(conds, 16); !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: concurrent ProbAll diverged from sequential", rep)
		}
	}
}

// BenchmarkProbAll measures the Pr(φ) fan-out over the paper-scale NBA
// c-table (10,000 objects, α=0.003, default missing rate) at increasing
// worker counts — the scaling curve of the parallel fan-out. On
// multi-core hardware Workers=4 should come in at least ~2x over
// Workers=1; on a single-core machine the curve is flat by construction.
//
// The alpha=0 case is the stream-shaped load instead: a 1,000-object
// table at 10% missing with no α pruning, the window size of the stream
// benchmarks, where an object keeps every possible dominator and its
// components are the large ones the ADPLL kernel spends its time on. It
// runs at 1 worker with the cache off, so it times the kernel alone.
func BenchmarkProbAll(b *testing.B) {
	conds, dists := nbaConditions(10000, 0.1, 0.003, 1)
	ev := NewEvaluator(dists)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ev.ProbAll(conds, workers)
			}
		})
	}
	b.Run("alpha=0,n=1000,workers=1", func(b *testing.B) {
		conds, dists := nbaConditions(1000, 0.1, 0, 1)
		ev := NewEvaluator(dists)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.ProbAll(conds, 1)
		}
	})
}
