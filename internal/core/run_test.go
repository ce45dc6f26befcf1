package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/skyline"
)

// sampleTruth completes the paper's 5-movie sample with ground-truth
// values consistent with Example 4's assumed crowd answers:
// Var(o2,a2)=4 (>3), Var(o3,a3)=2, Var(o5,a2)=3 (>2), Var(o5,a3)=3 (=3),
// Var(o5,a4)=3 (<4). The complete-data skyline is then {o1, o2, o3, o5}.
func sampleTruth() *dataset.Dataset {
	d := dataset.SampleMovies().Clone()
	d.Objects[1].Cells[1] = dataset.Known(4)
	d.Objects[2].Cells[2] = dataset.Known(2)
	d.Objects[4].Cells[1] = dataset.Known(3)
	d.Objects[4].Cells[2] = dataset.Known(3)
	d.Objects[4].Cells[3] = dataset.Known(3)
	return d
}

func TestSampleTruthSkyline(t *testing.T) {
	want := []int{0, 1, 2, 4}
	if got := skyline.BNL(sampleTruth()); !reflect.DeepEqual(got, want) {
		t.Fatalf("ground-truth skyline = %v, want %v", got, want)
	}
}

// TestPaperExample4EndToEnd drives the full crowdsourcing phase on the
// paper's running example with the Example 3 distributions, budget 6,
// latency 3 and perfect workers, for each strategy. All must recover the
// exact result set {o1, o2, o3, o5}.
func TestPaperExample4EndToEnd(t *testing.T) {
	incomplete := dataset.SampleMovies()
	truth := sampleTruth()
	want := []int{0, 1, 2, 4}

	for _, strat := range []Strategy{FBS, UBS, HHS} {
		opt := Options{
			Alpha:    1,
			Budget:   6,
			Latency:  3,
			Strategy: strat,
			M:        2,
			Rng:      rand.New(rand.NewSource(4)),
		}
		opt, err := opt.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		platform := crowd.NewSimulated(truth, 1.0, nil)
		ct := ctable.Build(incomplete, ctable.BuildOptions{Alpha: opt.Alpha})
		res, err := crowdPhase(incomplete, modelOf(ct, example3Dists(), opt), example3Dists(), platform, opt)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if !reflect.DeepEqual(res.Answers, want) {
			t.Errorf("%v: Answers = %v, want %v", strat, res.Answers, want)
		}
		if res.TasksPosted > 6 {
			t.Errorf("%v: posted %d tasks, budget 6", strat, res.TasksPosted)
		}
		if res.Rounds > 3 {
			t.Errorf("%v: used %d rounds, latency 3", strat, res.Rounds)
		}
		if res.TasksPosted != platform.Stats.TasksPosted || res.Rounds != platform.Stats.Rounds {
			t.Errorf("%v: result stats disagree with platform stats", strat)
		}
	}
}

// TestConflictFreeBatches verifies no two tasks in any posted batch share
// a variable (§6.1).
type recordingPlatform struct {
	inner   crowd.Platform
	batches [][]crowd.Task
}

func (r *recordingPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	r.batches = append(r.batches, append([]crowd.Task(nil), tasks...))
	return r.inner.Post(tasks)
}

func TestConflictFreeBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	truth := dataset.GenNBA(rng, 300)
	incomplete := truth.InjectMissing(rng, 0.15)

	rec := &recordingPlatform{inner: crowd.NewSimulated(truth, 1.0, nil)}
	_, err := Run(incomplete, rec, Options{
		Alpha:    0.05,
		Budget:   40,
		Latency:  5,
		Strategy: FBS,
		Net:      dataset.NBANet(),
		Rng:      rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.batches) == 0 {
		t.Fatal("no batches posted")
	}
	for bi, batch := range rec.batches {
		seen := map[ctable.Var]bool{}
		var buf []ctable.Var
		for _, task := range batch {
			for _, v := range task.Expr.Vars(buf[:0]) {
				if seen[v] {
					t.Fatalf("batch %d: variable %v in two tasks", bi, v)
				}
				seen[v] = true
			}
		}
	}
}

// TestPerfectRunReachesPerfectF1 gives each strategy ample budget with
// perfect workers on tie-free data: the final result must equal the
// complete-data skyline exactly.
func TestPerfectRunReachesPerfectF1(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	truth := dataset.GenIndependent(rng, 120, 4, 16)
	incomplete := truth.InjectMissing(rng, 0.15)
	want := skyline.BNL(truth)

	for _, strat := range []Strategy{FBS, UBS, HHS} {
		res, err := Run(incomplete, crowd.NewSimulated(truth, 1.0, nil), Options{
			Alpha:    0, // no pruning
			Budget:   100000,
			Latency:  1000,
			Strategy: strat,
			M:        5,
			Rng:      rand.New(rand.NewSource(63)),
		})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if f1 := metrics.F1(res.Answers, want); f1 != 1 {
			t.Errorf("%v: F1 = %v with unlimited budget and perfect workers", strat, f1)
		}
		if len(res.Probs) != 0 {
			t.Errorf("%v: %d conditions left undecided with unlimited budget", strat, len(res.Probs))
		}
	}
}

// TestBudgetMonotonicity: more budget must not hurt accuracy (same seed,
// perfect workers).
func TestBudgetMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	truth := dataset.GenCorrelated(rng, 200, 5, 10, 0.5)
	incomplete := truth.InjectMissing(rng, 0.15)
	want := skyline.BNL(truth)

	run := func(budget int) float64 {
		res, err := Run(incomplete, crowd.NewSimulated(truth, 1.0, nil), Options{
			Alpha: 0.3, Budget: budget, Latency: 5, Strategy: FBS,
			MarginalsOnly: true,
			Rng:           rand.New(rand.NewSource(65)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return metrics.F1(res.Answers, want)
	}
	small, large := run(5), run(500)
	if large < small-1e-9 {
		t.Errorf("F1 dropped from %v to %v with 100x budget", small, large)
	}
}

func TestRunRespectsBudgetAndLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	truth := dataset.GenIndependent(rng, 150, 4, 8)
	incomplete := truth.InjectMissing(rng, 0.2)
	platform := crowd.NewSimulated(truth, 1.0, nil)
	res, err := Run(incomplete, platform, Options{
		Alpha: 0.3, Budget: 17, Latency: 4, Strategy: FBS,
		MarginalsOnly: true,
		Rng:           rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksPosted > 17 {
		t.Errorf("TasksPosted = %d > budget 17", res.TasksPosted)
	}
	if res.Rounds > 4 {
		t.Errorf("Rounds = %d > latency 4", res.Rounds)
	}
	// ⌈17/4⌉ = 5 tasks per round at most.
	if res.Rounds > 0 && res.TasksPosted > res.Rounds*5 {
		t.Errorf("batches exceed μ: %d tasks in %d rounds", res.TasksPosted, res.Rounds)
	}
}

func TestRunOptionValidation(t *testing.T) {
	d := dataset.SampleMovies()
	platform := crowd.NewSimulated(sampleTruth(), 1.0, nil)
	cases := []Options{
		{Budget: 0, Latency: 1},                      // zero budget
		{Budget: 5, Latency: 0},                      // zero latency
		{Budget: 5, Latency: 1, Strategy: HHS, M: 0}, // HHS without m
	}
	for i, opt := range cases {
		if _, err := Run(d, platform, opt); err == nil {
			t.Errorf("case %d: Run accepted invalid options", i)
		}
	}
}

func TestImperfectWorkersStillProduceResult(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	truth := dataset.GenCorrelated(rng, 150, 4, 8, 0.6)
	incomplete := truth.InjectMissing(rng, 0.15)
	platform := crowd.NewSimulated(truth, 0.7, rand.New(rand.NewSource(68)))
	res, err := Run(incomplete, platform, Options{
		Alpha: 0.3, Budget: 120, Latency: 6, Strategy: HHS, M: 3,
		MarginalsOnly: true,
		Rng:           rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := skyline.BNL(truth)
	if f1 := metrics.F1(res.Answers, want); f1 < 0.3 {
		t.Errorf("F1 = %v with 0.7-accuracy workers; suspiciously low", f1)
	}
}

// TestAnswerPropagation: one answer about a shared variable must decide
// expressions in other objects' conditions without extra tasks.
func TestAnswerPropagation(t *testing.T) {
	// Three objects: o1 and o2 complete, o3 missing a2. Both o1 and o2
	// are only threatened by o3's variable.
	d := dataset.New([]dataset.Attribute{{Name: "a1", Levels: 10}, {Name: "a2", Levels: 10}})
	d.MustAppend(dataset.Object{ID: "o1", Cells: []dataset.Cell{dataset.Known(5), dataset.Known(4)}})
	d.MustAppend(dataset.Object{ID: "o2", Cells: []dataset.Cell{dataset.Known(6), dataset.Known(3)}})
	d.MustAppend(dataset.Object{ID: "o3", Cells: []dataset.Cell{dataset.Known(9), dataset.Unknown()}})

	truth := d.Clone()
	truth.Objects[2].Cells[1] = dataset.Known(2)

	platform := crowd.NewSimulated(truth, 1.0, nil)
	res, err := Run(d, platform, Options{
		Alpha: 1, Budget: 100, Latency: 100, Strategy: FBS,
		MarginalsOnly: true,
		Rng:           rand.New(rand.NewSource(69)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Truth: o3=(9,2). o3 dominates o2 (9>6, 2<3? no — 2 < 3, so o3 does
	// NOT dominate o2). Skyline: o1 (4 beats o3's 2 on a2... o3=9>5 on a1,
	// 2<4 on a2 → no domination), o2, o3 all in skyline.
	want := skyline.BNL(truth)
	if f1 := metrics.F1(res.Answers, want); f1 != 1 {
		t.Fatalf("F1 = %v, want 1 (answers %v, want %v)", f1, res.Answers, want)
	}
	// φ(o1) needs Var(o3,a2) < 4 and φ(o2) needs Var(o3,a2) < 3: a single
	// answer "Var(o3,a2) = 2" (or a < comparison) can settle both, so at
	// most 2 tasks — but propagation should settle it in fewer than the
	// 3 tasks a no-inference approach would need (one per expression,
	// including o3's own condition which is decided true statically).
	if res.TasksPosted > 2 {
		t.Errorf("TasksPosted = %d; propagation should need at most 2", res.TasksPosted)
	}
}

func TestDeterministicRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	truth := dataset.GenIndependent(rng, 100, 4, 8)
	incomplete := truth.InjectMissing(rng, 0.15)
	run := func() *Result {
		res, err := Run(incomplete, crowd.NewSimulated(truth, 0.9, rand.New(rand.NewSource(71))), Options{
			Alpha: 0.3, Budget: 30, Latency: 5, Strategy: HHS, M: 3,
			MarginalsOnly: true,
			Rng:           rand.New(rand.NewSource(72)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Answers, b.Answers) || a.TasksPosted != b.TasksPosted || a.Rounds != b.Rounds {
		t.Fatal("same seeds produced different runs")
	}
}
