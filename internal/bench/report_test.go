package bench

import (
	"slices"
	"strings"
	"testing"
)

func baselineReport() *Report {
	return &Report{
		Scale: "quick",
		Metrics: map[string]float64{
			"stream.throughput_speedup_vs_rebuild": 5.1,
			"scale.build_speedup_vs_seed":          15.7,
			"cache.sel_speedup_cache_vs_off":       1.5,
			"cache.phase_speedup_cache_vs_off":     1.3,
		},
		Floors: map[string]float64{
			"stream.throughput_speedup_vs_rebuild": 3.0,
		},
	}
}

func TestComparePasses(t *testing.T) {
	cur := baselineReport()
	cur.Metrics["stream.throughput_speedup_vs_rebuild"] = 4.5 // within 20% of 5.1, above floor
	if problems := Compare(cur, baselineReport(), 0.20); len(problems) != 0 {
		t.Fatalf("expected clean gate, got %v", problems)
	}
}

func TestCompareFailsOnRegression(t *testing.T) {
	cur := baselineReport()
	cur.Metrics["cache.sel_speedup_cache_vs_off"] = 1.0 // below 1.5 * 0.8
	problems := Compare(cur, baselineReport(), 0.20)
	if len(problems) != 1 || !strings.Contains(problems[0], "cache.sel_speedup_cache_vs_off") {
		t.Fatalf("expected one cache regression, got %v", problems)
	}
}

func TestCompareFailsBelowFloor(t *testing.T) {
	base := baselineReport()
	base.Metrics["stream.throughput_speedup_vs_rebuild"] = 3.6 // band floor 2.88...
	cur := baselineReport()
	cur.Metrics["stream.throughput_speedup_vs_rebuild"] = 2.9 // ...but the absolute floor is 3.0
	problems := Compare(cur, base, 0.20)
	if len(problems) != 1 || !strings.Contains(problems[0], "absolute floor") {
		t.Fatalf("expected a floor breach, got %v", problems)
	}
}

func TestCompareFailsOnMissingMetric(t *testing.T) {
	cur := baselineReport()
	delete(cur.Metrics, "cache.phase_speedup_cache_vs_off")
	problems := Compare(cur, baselineReport(), 0.20)
	if len(problems) != 1 || !strings.Contains(problems[0], "missing") {
		t.Fatalf("expected a missing-metric failure, got %v", problems)
	}
}

func TestCompareCrossScaleSkipsBand(t *testing.T) {
	// A paper-scale nightly compared against the quick-scale baseline:
	// speedups shift with the workload (window size, α), so the relative
	// band must not apply — but the absolute floors still do. The paper
	// figure here sits below the quick baseline's band on purpose.
	cur := &Report{
		Scale: "paper",
		Metrics: map[string]float64{
			"stream.throughput_speedup_vs_rebuild": 3.5,
		},
		Floors: map[string]float64{
			"stream.throughput_speedup_vs_rebuild": 3.0,
		},
	}
	base := baselineReport()
	if problems := Compare(cur, base, 0.20); len(problems) != 0 {
		t.Fatalf("cross-scale band applied: %v", problems)
	}
	// Floors remain binding across scales.
	cur.Metrics["stream.throughput_speedup_vs_rebuild"] = 2.9
	problems := Compare(cur, base, 0.20)
	if len(problems) != 1 || !strings.Contains(problems[0], "absolute floor") {
		t.Fatalf("cross-scale floor not enforced: %v", problems)
	}
}

func TestCompareSkipsExperimentsNotRun(t *testing.T) {
	// A partial run (stream only) must not be failed for scale and cache
	// metrics it never measured — but still answers for the experiments
	// it ran.
	cur := &Report{
		Scale: "quick",
		Metrics: map[string]float64{
			"stream.throughput_speedup_vs_rebuild": 5.0,
		},
	}
	if problems := Compare(cur, baselineReport(), 0.20); len(problems) != 0 {
		t.Fatalf("partial run flagged for unrun experiment: %v", problems)
	}
}

func TestReportRoundTrip(t *testing.T) {
	r := baselineReport()
	data, err := r.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scale != r.Scale || len(back.Metrics) != len(r.Metrics) || len(back.Floors) != len(r.Floors) {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestRunTablesRecoversPanics(t *testing.T) {
	saved := Experiments
	Experiments = append(slices.Clip(Experiments), Experiment{ID: "zz-panic", Run: func(Scale) ([]*Table, error) { panic("boom") }})
	defer func() { Experiments = saved }()
	if _, err := RunTables("zz-panic", Quick()); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}
