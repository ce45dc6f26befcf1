package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

func TestMarginalDists(t *testing.T) {
	d := dataset.New([]dataset.Attribute{{Name: "a", Levels: 3}})
	d.MustAppend(dataset.Object{ID: "o1", Cells: []dataset.Cell{dataset.Known(2)}})
	d.MustAppend(dataset.Object{ID: "o2", Cells: []dataset.Cell{dataset.Known(2)}})
	d.MustAppend(dataset.Object{ID: "o3", Cells: []dataset.Cell{dataset.Unknown()}})

	dists, err := Preprocess(d, Options{MarginalsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	dist, ok := dists[ctable.Var{Obj: 2, Attr: 0}]
	if !ok {
		t.Fatal("missing cell has no distribution")
	}
	// Counts: value 2 observed twice; add-one smoothing over 3 levels:
	// (0+1)/5, (0+1)/5, (2+1)/5.
	want := []float64{0.2, 0.2, 0.6}
	for v := range want {
		if math.Abs(dist[v]-want[v]) > 1e-12 {
			t.Fatalf("marginal = %v, want %v", dist, want)
		}
	}
	// Only missing cells get distributions.
	if len(dists) != 1 {
		t.Fatalf("got %d distributions, want 1", len(dists))
	}
}

func TestPreprocessWithProvidedNet(t *testing.T) {
	// Chain net a1 → a2 with strong coupling: observing a1 must shift the
	// posterior of a missing a2.
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "a2", Levels: 2, Parents: []int{0}, CPT: []float64{0.9, 0.1, 0.1, 0.9}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	d.MustAppend(dataset.Object{ID: "hi", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "lo", Cells: []dataset.Cell{dataset.Known(0), dataset.Unknown()}})

	dists, err := Preprocess(d, Options{Net: net})
	if err != nil {
		t.Fatal(err)
	}
	hi := dists[ctable.Var{Obj: 0, Attr: 1}]
	lo := dists[ctable.Var{Obj: 1, Attr: 1}]
	if math.Abs(hi[1]-0.9) > 1e-9 || math.Abs(lo[1]-0.1) > 1e-9 {
		t.Fatalf("posteriors hi=%v lo=%v, want P(a2=1) = 0.9 / 0.1", hi, lo)
	}
}

func TestPreprocessSchemaMismatch(t *testing.T) {
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	if _, err := Preprocess(d, Options{Net: net}); err == nil {
		t.Error("Preprocess accepted node-count mismatch")
	}

	net3 := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 3, CPT: []float64{0.4, 0.3, 0.3}},
		{Name: "a2", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	if _, err := Preprocess(d, Options{Net: net3}); err == nil {
		t.Error("Preprocess accepted level mismatch")
	}
}

func TestPreprocessLearnsFromCompleteRows(t *testing.T) {
	// Strong a1→a2 dependence in the data: the learned network's
	// posterior for a missing a2 must depend on the object's a1.
	rng := rand.New(rand.NewSource(81))
	truth := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "a2", Levels: 2, Parents: []int{0}, CPT: []float64{0.95, 0.05, 0.05, 0.95}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	for i := 0; i < 400; i++ {
		row := truth.Sample(rng)
		d.MustAppend(dataset.Object{ID: "", Cells: []dataset.Cell{dataset.Known(row[0]), dataset.Known(row[1])}})
	}
	// Two incomplete probe objects.
	d.MustAppend(dataset.Object{ID: "hi", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "lo", Cells: []dataset.Cell{dataset.Known(0), dataset.Unknown()}})

	dists, err := Preprocess(d, Options{LearnOpts: bayesnet.LearnOptions{Rng: rng}})
	if err != nil {
		t.Fatal(err)
	}
	hi := dists[ctable.Var{Obj: 400, Attr: 1}]
	lo := dists[ctable.Var{Obj: 401, Attr: 1}]
	if hi[1] < 0.8 || lo[1] > 0.2 {
		t.Fatalf("learned posteriors hi=%v lo=%v; dependence not captured", hi, lo)
	}
}

func TestPreprocessFallsBackWithFewCompleteRows(t *testing.T) {
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	for i := 0; i < 10; i++ {
		d.MustAppend(dataset.Object{ID: "", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	}
	dists, err := Preprocess(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != 10 {
		t.Fatalf("got %d distributions, want 10", len(dists))
	}
	for v, dist := range dists {
		sum := 0.0
		for _, p := range dist {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("distribution for %v sums to %v", v, sum)
		}
	}
}

func TestPosteriorCacheConsistency(t *testing.T) {
	// Objects with identical observed profiles must share identical
	// posterior slices (cache hit), and different profiles must differ.
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "a1", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "a2", Levels: 2, Parents: []int{0}, CPT: []float64{0.8, 0.2, 0.2, 0.8}},
	})
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 2}, {Name: "a2", Levels: 2}})
	d.MustAppend(dataset.Object{ID: "x", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "y", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	d.MustAppend(dataset.Object{ID: "z", Cells: []dataset.Cell{dataset.Known(0), dataset.Unknown()}})
	dists := posteriors(d, net, 1)
	x := dists[ctable.Var{Obj: 0, Attr: 1}]
	y := dists[ctable.Var{Obj: 1, Attr: 1}]
	z := dists[ctable.Var{Obj: 2, Attr: 1}]
	if &x[0] != &y[0] {
		t.Error("identical evidence did not share the cached posterior")
	}
	if math.Abs(x[1]-z[1]) < 1e-9 {
		t.Error("different evidence produced identical posteriors")
	}
}

func TestStrategyStringInCore(t *testing.T) {
	if FBS.String() != "FBS" || UBS.String() != "UBS" || HHS.String() != "HHS" {
		t.Fatal("Strategy.String broken")
	}
	if s := Strategy(99).String(); s == "" {
		t.Fatal("unknown strategy produced empty string")
	}
}

func TestLearnNetworkStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	d := dataset.GenNBA(rng, 200)
	net, err := LearnNetwork(d, bayesnet.LearnOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != d.NumAttrs() {
		t.Fatalf("learned %d nodes for %d attributes", net.NumNodes(), d.NumAttrs())
	}
	// Too few complete rows errors.
	if _, err := LearnNetwork(dataset.SampleMovies(), bayesnet.LearnOptions{}); err == nil {
		t.Fatal("LearnNetwork accepted a 5-row dataset")
	}
}

func TestRunSurfacesPreprocessError(t *testing.T) {
	// Mismatched network schema must surface as an error from Run.
	d := dataset.SampleMovies()
	net := bayesnet.MustNew([]bayesnet.Node{
		{Name: "only", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	platform := crowd.NewSimulated(d, 1.0, nil)
	if _, err := Run(d, platform, Options{Budget: 1, Latency: 1, Net: net}); err == nil {
		t.Fatal("Run accepted a mismatched network")
	}
}

type failingImputer struct{}

func (failingImputer) Distributions(*dataset.Dataset) (prob.Dists, error) {
	return nil, fmt.Errorf("boom")
}

func TestRunWithDistsValidatesOptions(t *testing.T) {
	d := dataset.SampleMovies()
	platform := crowd.NewSimulated(d, 1.0, nil)
	if _, err := RunWithDists(d, prob.Dists{}, platform, Options{Budget: 0, Latency: 1}); err == nil {
		t.Fatal("RunWithDists accepted zero budget")
	}
}

func TestImputerErrorSurfaces(t *testing.T) {
	d := dataset.SampleMovies()
	platform := crowd.NewSimulated(d, 1.0, nil)
	if _, err := Run(d, platform, Options{Budget: 1, Latency: 1, Imputer: failingImputer{}}); err == nil {
		t.Fatal("Run swallowed the imputer error")
	}
}

// TestPreprocessWorkerInvariance checks that posterior inference gives
// the same bits at any worker count, and that at every count the cells
// with identical evidence (same attribute, same observed cells) share
// one slice while cells with different evidence do not.
func TestPreprocessWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	d := dataset.GenNBA(rng, 2000).InjectMissing(rng, 0.1)
	var ref prob.Dists
	for _, w := range []int{1, 2, 8} {
		dists, err := Preprocess(d, Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if w == 1 {
			ref = dists
		}
		if len(dists) != len(ref) {
			t.Fatalf("workers %d: %d distributions, want %d", w, len(dists), len(ref))
		}
		byKey := map[string]*float64{}
		byPtr := map[*float64]string{}
		for v, dist := range dists {
			want := ref[v]
			if len(dist) != len(want) {
				t.Fatalf("workers %d: %v has %d levels, want %d", w, v, len(dist), len(want))
			}
			for k := range dist {
				if math.Float64bits(dist[k]) != math.Float64bits(want[k]) {
					t.Fatalf("workers %d: %v = %v, want %v", w, v, dist, want)
				}
			}
			key := fmt.Sprint(v.Attr, "|")
			for _, c := range d.Objects[v.Obj].Cells {
				key += fmt.Sprint(c.Missing, c.Value, ",")
			}
			if p, ok := byKey[key]; ok && p != &dist[0] {
				t.Fatalf("workers %d: %v does not share its profile's slice", w, v)
			}
			if k, ok := byPtr[&dist[0]]; ok && k != key {
				t.Fatalf("workers %d: %v shares a slice with another profile", w, v)
			}
			byKey[key], byPtr[&dist[0]] = &dist[0], key
		}
	}
}

// BenchmarkPreprocess times the preprocessing layer as svc-oneshot's
// dataset registration runs it: GenNBA n=10,000 with 10% of the cells
// missing, a network learned from the complete rows, then one posterior
// per distinct evidence profile, at 1 and 2 workers.
func BenchmarkPreprocess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.GenNBA(rng, 10000).InjectMissing(rng, 0.10)
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Preprocess(d, Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLearnNetwork times structure learning alone — the hill
// climber's family scoring, fanned out per step — on the complete rows
// of GenNBA at 10% missing.
func BenchmarkLearnNetwork(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		rng := rand.New(rand.NewSource(1))
		d := dataset.GenNBA(rng, n).InjectMissing(rng, 0.10)
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := learnNetwork(d, Options{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
