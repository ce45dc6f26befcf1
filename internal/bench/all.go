package bench

import (
	"fmt"
	"io"
	"slices"
)

// Experiment is one registered experiment: its id as cmd/benchfig
// accepts it, a one-line summary for -list, and its runner. A runner
// returns its tables or the first error that stopped it; RunTables
// additionally converts panics escaping legacy helpers into errors, so a
// failed experiment can never scroll past as a half-printed table.
type Experiment struct {
	ID          string
	Description string
	Run         func(Scale) ([]*Table, error)
}

// Experiments lists every experiment in presentation order: the paper's
// figures, then its tables, then the repo's own ablations.
var Experiments = []Experiment{
	{"fig2", "c-table construction: Get-CTable vs pairwise Baseline, by missing rate", Fig2},
	{"fig3", "probability computation: ADPLL vs Naive enumeration, by missing rate", Fig3},
	{"fig3-ablation", "ADPLL design choices + ApproxCount/MonteCarlo comparators", Fig3Ablation},
	{"fig4", "BayesCrowd vs CrowdSky vs unary [22]: time, #tasks, #rounds, by cardinality", Fig4},
	{"fig5", "time and F1 vs budget, three strategies, both datasets", Fig5},
	{"fig6", "time and F1 vs missing rate", Fig6},
	{"fig7", "effect of the HHS parameter m", Fig7},
	{"fig8", "effect of the pruning threshold alpha", Fig8},
	{"fig9", "effect of worker accuracy", Fig9},
	{"fig10", "effect of latency (rounds), Synthetic", Fig10},
	{"fig11", "effect of data cardinality, Synthetic", Fig11},
	{"table6", "simulated AMT practicality study", Table6},
	{"ablation", "answer propagation on/off; BN vs autoencoder vs marginals", Ablation},
	{"motivation", "machine-only ISkyline vs inference-only vs budgeted BayesCrowd", Motivation},
	{"workers", "parallel scaling: c-table build and Pr(phi) fan-out vs worker count", WorkersScaling},
	{"cache", "component-memoization ablation: crowdsourcing phase with the Pr(phi) cache on vs off", CacheExperiment},
	{"faults", "fault tolerance: monetary cost and round inflation vs answer-drop rate, three strategies", FaultsExperiment},
	{"obs", "observability overhead: crowdsourcing phase timed with tracing/metrics disabled, no-op, aggregated, and fully traced", ObsOverhead},
	{"scale", "c-table build scaling to 1M objects: sort-based build vs the pairwise seed baseline", ScaleExperiment},
	{"stream", "sliding-window sustained throughput: incremental delta c-table maintenance vs rebuild-per-tick", StreamExperiment},
	{"streamcrowd", "asynchronous crowd over the live window: answer utilisation and F1 vs crowd latency, fixed task deadline", StreamCrowdExperiment},
}

// Names returns the experiment ids in presentation order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.ID
	}
	return names
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
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.ID == name })
	if i < 0 {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bench: experiment %q panicked: %v", name, r)
		}
	}()
	return Experiments[i].Run(s)
}
