package bench

// Scale fixes the dataset sizes and sweep points of the experiment suite.
// Paper() matches the evaluation setup of §7; Quick() shrinks cardinality
// and sweep density so the whole suite runs in seconds (the shapes —
// who wins and by roughly what factor — are preserved).
type Scale struct {
	Name string

	// Dataset cardinalities.
	NBASize int // paper: 10,000 rows × 11 attributes
	SynSize int // paper: 100,000 rows × 9 attributes

	// Per-dataset defaults (paper §7).
	NBAAlpha, SynAlpha     float64
	NBABudget, SynBudget   int
	NBAM, SynM             int
	NBALatency, SynLatency int

	// Default missing rate and the Figure 2/3/6 sweep.
	MissingRate  float64
	MissingRates []float64

	// Figure 4: NBA cardinality sweep and tasks per round.
	NBACardinalities []int
	Fig4PerRound     int
	Fig4CrowdAttrs   []int

	// Figure 5: budget sweeps.
	NBABudgets, SynBudgets []int

	// Figure 7: HHS m sweep.
	Ms []int

	// Figure 8: α sweep.
	Alphas []float64

	// Figure 9: worker accuracy sweep.
	Accuracies []float64

	// Figure 10: latency sweep (Synthetic).
	Latencies []int

	// Figure 11: Synthetic cardinality sweep.
	SynCardinalities []int

	// NaiveCap bounds the per-condition enumeration state space for the
	// Naive comparator of Figure 3; conditions above it are excluded from
	// both sides of the comparison (and counted in the table notes).
	NaiveCap float64

	// Table 6: simulated AMT worker accuracy.
	AMTAccuracy float64

	// Reps repeats each measured cell with varied seeds (median time,
	// mean accuracy) to tame quick-scale noise.
	Reps int

	// Workers bounds the framework's worker pool during measured runs
	// (core.Options.Workers): 0 means one per CPU. The "workers"
	// experiment sweeps WorkerCounts instead, recording the scaling
	// curve of the two dominant costs.
	Workers      int
	WorkerCounts []int

	// NoCache disables the component probability cache in every measured
	// run (core.Options.NoCache) — the "cache" experiment ignores it and
	// always measures both modes.
	NoCache bool

	// DropRates is the per-task answer-drop sweep of the "faults"
	// experiment; 0 is the fault-free baseline the inflation columns are
	// relative to.
	DropRates []float64

	// "scale" experiment: cardinalities for the c-table build sweep and
	// the cap above which the quadratic pairwise (Fig 2) baseline is
	// skipped (noted in the table, never silently).
	ScaleNs          []int
	ScalePairwiseCap int

	// "stream" experiment: the sliding-window sustained-throughput gate.
	// A count-bound window of StreamWindow objects is filled untimed,
	// then consumes StreamArrivals arrivals per tick for StreamTicks
	// sustained ticks at steady state (every tick inserts and evicts);
	// the incremental engine and the rebuild-per-tick baseline process
	// the identical stream, and the ratio of their sustained objects/sec
	// is the gated metric.
	StreamWindow   int
	StreamArrivals int
	StreamTicks    int

	Seed int64
}

// Paper returns the full evaluation scale of §7. Running the complete
// suite at this scale takes on the order of tens of minutes.
func Paper() Scale {
	return Scale{
		Name:    "paper",
		NBASize: 10000, SynSize: 100000,
		NBAAlpha: 0.003, SynAlpha: 0.01,
		NBABudget: 50, SynBudget: 1000,
		NBAM: 15, SynM: 50,
		NBALatency: 5, SynLatency: 10,
		MissingRate:      0.1,
		MissingRates:     []float64{0.05, 0.1, 0.15, 0.2},
		NBACardinalities: []int{2000, 4000, 6000, 8000, 10000},
		Fig4PerRound:     20,
		Fig4CrowdAttrs:   []int{2, 3},
		NBABudgets:       []int{10, 30, 50, 70, 90},
		SynBudgets:       []int{200, 600, 1000, 1400, 1800},
		Ms:               []int{5, 10, 15, 20, 25},
		Alphas:           []float64{0.001, 0.003, 0.005, 0.008, 0.01},
		Accuracies:       []float64{0.7, 0.8, 0.9, 1.0},
		Latencies:        []int{2, 4, 6, 8, 10},
		SynCardinalities: []int{25000, 50000, 75000, 100000, 125000},
		NaiveCap:         2e7,
		AMTAccuracy:      0.95,
		Reps:             1,
		WorkerCounts:     []int{1, 2, 4, 8},
		DropRates:        []float64{0, 0.1, 0.2, 0.3},
		ScaleNs:          []int{10000, 100000, 1000000},
		ScalePairwiseCap: 20000,
		StreamWindow:     1000,
		StreamArrivals:   1,
		StreamTicks:      300,
		Seed:             1,
	}
}

// Quick returns a laptop-second scale preserving the experimental shapes.
func Quick() Scale {
	return Scale{
		Name:    "quick",
		NBASize: 1200, SynSize: 2000,
		NBAAlpha: 0.01, SynAlpha: 0.02,
		NBABudget: 40, SynBudget: 120,
		NBAM: 5, SynM: 8,
		NBALatency: 5, SynLatency: 10,
		MissingRate:      0.1,
		MissingRates:     []float64{0.05, 0.1, 0.15, 0.2},
		NBACardinalities: []int{200, 400, 800},
		Fig4PerRound:     20,
		Fig4CrowdAttrs:   []int{2, 3},
		NBABudgets:       []int{10, 30, 50, 70, 90},
		SynBudgets:       []int{40, 80, 120, 160, 200},
		Ms:               []int{1, 3, 5, 10},
		Alphas:           []float64{0.005, 0.01, 0.02, 0.04},
		Accuracies:       []float64{0.7, 0.8, 0.9, 1.0},
		Latencies:        []int{2, 4, 6, 8, 10},
		SynCardinalities: []int{500, 1000, 2000, 4000},
		NaiveCap:         2e6,
		AMTAccuracy:      0.95,
		Reps:             3,
		WorkerCounts:     []int{1, 2, 4},
		DropRates:        []float64{0, 0.1, 0.2, 0.3},
		ScaleNs:          []int{2000, 10000, 50000},
		ScalePairwiseCap: 5000,
		StreamWindow:     300,
		StreamArrivals:   1,
		StreamTicks:      300,
		Seed:             1,
	}
}
