package bench

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Report is the machine-readable outcome of a benchfig run: every metric
// the executed experiments published, flattened to "experiment.metric"
// keys, plus the absolute floors certain metrics must clear regardless of
// what the baseline says. Reports are what the CI regression gate
// compares: the metrics are in-run speedups of the current code over an
// in-process comparator (the pairwise c-table build, the cache-off run,
// the rebuild-per-tick stream — dimensionless, measured within one
// process), so a baseline committed from one machine transfers to any
// other.
type Report struct {
	Scale   string             `json:"scale"`
	Metrics map[string]float64 `json:"metrics"`
	// Floors are absolute minima enforced on the CURRENT run when the
	// named metric is present — acceptance bars independent of baseline
	// drift. A report being used purely as a
	// baseline may leave them empty.
	Floors map[string]float64 `json:"floors,omitempty"`
}

// Floors gated metrics must clear whatever the baseline says. The
// streaming engine must sustain at least 3× the rebuild-per-tick
// baseline's objects/sec at the default window (the incremental
// maintenance acceptance bar). Pr(φ) kernel speed is not gated here: the
// end-to-end svc-mixed and svc-oneshot workloads (BENCHMARK.json) guard
// it.
var defaultFloors = map[string]float64{
	"stream.throughput_speedup_vs_rebuild": 3.0,
}

// NewReport assembles a report from executed experiments' tables.
func NewReport(scaleName string) *Report {
	return &Report{Scale: scaleName, Metrics: map[string]float64{}, Floors: map[string]float64{}}
}

// Add flattens one experiment's table metrics into the report and arms
// any default floors that apply to them.
func (r *Report) Add(exp string, tables []*Table) {
	for _, t := range tables {
		for name, v := range t.Metrics {
			key := exp + "." + name
			r.Metrics[key] = v
			if f, ok := defaultFloors[key]; ok {
				r.Floors[key] = f
			}
		}
	}
}

// MarshalIndent renders the report as stable, diff-friendly JSON.
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseReport reads a report written by MarshalIndent.
func ParseReport(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	return &r, nil
}

// Compare checks the current report against a committed baseline with a
// relative tolerance band (tol=0.2 fails a metric below 80% of its
// baseline value). Three conditions fail a metric: it dropped below the
// band, it dropped below its absolute floor, or it vanished entirely —
// a silently missing metric must read as a regression, not a pass.
// Baseline metrics are only enforced when the current run executed the
// owning experiment (some metric with the same "exp." prefix exists), so
// a partial CI run compares only what it measured. When the two reports
// were produced at different scales (quick baseline vs a paper-scale
// nightly), the relative band is skipped — speedup plateaus shift with
// workload parameters such as α, so cross-scale ratios are not
// comparable — and only the absolute floors and the missing-metric check
// apply. Returns a sorted list of human-readable problems; empty means
// the gate passes.
func Compare(cur, base *Report, tol float64) []string {
	var problems []string
	ran := map[string]bool{}
	for key := range cur.Metrics {
		ran[expOf(key)] = true
	}
	sameScale := cur.Scale == base.Scale
	for key, bv := range base.Metrics {
		if !ran[expOf(key)] {
			continue
		}
		cv, ok := cur.Metrics[key]
		if !ok {
			problems = append(problems, fmt.Sprintf(
				"%s: metric missing from current run (baseline %.3f)", key, bv))
			continue
		}
		if !sameScale {
			continue
		}
		if min := bv * (1 - tol); cv < min {
			problems = append(problems, fmt.Sprintf(
				"%s: %.3f regressed below %.3f (baseline %.3f, tolerance %.0f%%)",
				key, cv, min, bv, 100*tol))
		}
	}
	floors := base.Floors
	if len(cur.Floors) > 0 {
		floors = cur.Floors
	}
	for key, floor := range floors {
		cv, ok := cur.Metrics[key]
		if !ok {
			if ran[expOf(key)] {
				problems = append(problems, fmt.Sprintf(
					"%s: metric missing from current run (floor %.2f)", key, floor))
			}
			continue
		}
		if cv < floor {
			problems = append(problems, fmt.Sprintf(
				"%s: %.3f below the absolute floor %.2f", key, cv, floor))
		}
	}
	sort.Strings(problems)
	return problems
}

func expOf(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '.' {
			return key[:i]
		}
	}
	return key
}
