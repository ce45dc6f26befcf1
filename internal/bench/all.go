package bench

import (
	"fmt"
	"io"
	"sort"
)

// Descriptions gives a one-line summary per experiment id for -list.
var Descriptions = map[string]string{
	"fig2":          "c-table construction: Get-CTable vs pairwise Baseline, by missing rate",
	"fig3":          "probability computation: ADPLL vs Naive enumeration, by missing rate",
	"fig3-ablation": "ADPLL design choices + ApproxCount/MonteCarlo comparators",
	"fig4":          "BayesCrowd vs CrowdSky vs unary [22]: time, #tasks, #rounds, by cardinality",
	"fig5":          "time and F1 vs budget, three strategies, both datasets",
	"fig6":          "time and F1 vs missing rate",
	"fig7":          "effect of the HHS parameter m",
	"fig8":          "effect of the pruning threshold alpha",
	"fig9":          "effect of worker accuracy",
	"fig10":         "effect of latency (rounds), Synthetic",
	"fig11":         "effect of data cardinality, Synthetic",
	"table6":        "simulated AMT practicality study",
	"ablation":      "answer propagation on/off; BN vs autoencoder vs marginals",
	"motivation":    "machine-only ISkyline vs inference-only vs budgeted BayesCrowd",
	"workers":       "parallel scaling: c-table build and Pr(phi) fan-out vs worker count",
	"cache":         "component-memoization ablation: crowdsourcing phase with the Pr(phi) cache on vs off",
	"faults":        "fault tolerance: monetary cost and round inflation vs answer-drop rate, three strategies",
	"obs":           "observability overhead: crowdsourcing phase timed with tracing/metrics disabled, no-op, aggregated, and fully traced",
	"scale":         "c-table build scaling to 1M objects: sort-based build vs the pairwise seed baseline",
	"stream":        "sliding-window sustained throughput: incremental delta c-table maintenance vs rebuild-per-tick",
	"streamcrowd":   "asynchronous crowd over the live window: answer utilisation and F1 vs crowd latency, fixed task deadline",
}

// Experiments maps experiment ids (as accepted by cmd/benchfig) to their
// runners. A runner returns its tables or the first error that stopped
// it; Run additionally converts panics escaping legacy helpers into
// errors, so a failed experiment can never scroll past as a half-printed
// table.
var Experiments = map[string]func(Scale) ([]*Table, error){
	"fig2":          Fig2,
	"fig3":          Fig3,
	"fig3-ablation": Fig3Ablation,
	"fig4":          Fig4,
	"fig5":          Fig5,
	"fig6":          Fig6,
	"fig7":          Fig7,
	"fig8":          Fig8,
	"fig9":          Fig9,
	"fig10":         Fig10,
	"fig11":         Fig11,
	"table6":        Table6,
	"ablation":      Ablation,
	"motivation":    Motivation,
	"workers":       WorkersScaling,
	"cache":         CacheExperiment,
	"faults":        FaultsExperiment,
	"obs":           ObsOverhead,
	"scale":         ScaleExperiment,
	"stream":        StreamExperiment,
	"streamcrowd":   StreamCrowdExperiment,
}

// presentationOrder lists the experiment ids in the order they appear in
// the paper (figures, then tables, then the repo's own ablations). Ids
// registered in Experiments but missing here are appended alphabetically
// rather than in map-iteration order, so -list and RunAll stay stable.
var presentationOrder = []string{
	"fig2", "fig3", "fig3-ablation", "fig4", "fig5", "fig6", "fig7",
	"fig8", "fig9", "fig10", "fig11", "table6", "ablation", "motivation",
	"workers", "cache", "faults", "obs", "scale", "stream", "streamcrowd",
}

// Names returns the experiment ids in stable presentation order.
func Names() []string {
	names := make([]string, 0, len(Experiments))
	listed := make(map[string]bool, len(presentationOrder))
	for _, n := range presentationOrder {
		listed[n] = true
		if _, ok := Experiments[n]; ok {
			names = append(names, n)
		}
	}
	var extra []string
	for n := range Experiments {
		if !listed[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	return append(names, extra...)
}

// RunAll executes every experiment at the given scale, streaming tables to
// w as they complete. It stops at the first experiment that fails and
// returns that error — callers (cmd/benchfig) turn it into a non-zero
// exit.
func RunAll(w io.Writer, s Scale) error {
	for _, name := range Names() {
		if err := Run(w, name, s); err != nil {
			return err
		}
	}
	return nil
}

// Run executes one experiment by id and prints its tables.
func Run(w io.Writer, name string, s Scale) error {
	tables, err := RunTables(name, s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s (scale=%s)\n\n", name, s.Name)
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}

// RunTables executes one experiment by id and returns its tables without
// printing, for callers that assemble machine-readable reports. Panics
// from the measurement helpers (dataset generation, a failed run inside a
// sweep) are converted into errors here — the experiment boundary — so
// every failure mode reaches the caller as a single error value.
func RunTables(name string, s Scale) (tables []*Table, err error) {
	exp, ok := Experiments[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bench: experiment %q panicked: %v", name, r)
		}
	}()
	return exp(s)
}
