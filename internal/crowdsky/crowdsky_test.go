package crowdsky

import (
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/skyline"
)

// countingPlatform tallies the tasks and non-empty batches posted
// through it, independently of the Result under test.
type countingPlatform struct {
	inner         crowd.Platform
	tasks, rounds int
}

func (c *countingPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	if len(tasks) > 0 {
		c.tasks += len(tasks)
		c.rounds++
	}
	return c.inner.Post(tasks)
}

// setup generates a complete truth dataset and hides the crowd attributes.
func setup(t *testing.T, seed int64, n, d int, crowdAttrs []int) (truth, incomplete *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	truth = dataset.GenIndependent(rng, n, d, 8)
	return truth, truth.HideAttrs(crowdAttrs...)
}

func TestPerfectWorkersExactSkyline(t *testing.T) {
	truth, incomplete := setup(t, 91, 120, 5, []int{1, 3})
	platform := &countingPlatform{inner: crowd.NewSimulated(truth, 1.0, nil)}
	res, err := Run(incomplete, platform, Options{CrowdAttrs: []int{1, 3}, TasksPerRound: 20})
	if err != nil {
		t.Fatal(err)
	}
	want := skyline.BNL(truth)
	if !reflect.DeepEqual(res.Skyline, want) {
		t.Fatalf("Skyline = %v, want %v", res.Skyline, want)
	}
	if res.TasksPosted == 0 || res.Rounds == 0 {
		t.Fatal("no crowd work recorded")
	}
	if res.TasksPosted != platform.tasks || res.Rounds != platform.rounds {
		t.Fatalf("result counts %d tasks in %d rounds, platform saw %d in %d",
			res.TasksPosted, res.Rounds, platform.tasks, platform.rounds)
	}
}

func TestManySeedsExactSkyline(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		truth, incomplete := setup(t, seed, 60, 4, []int{0, 2})
		platform := crowd.NewSimulated(truth, 1.0, nil)
		res, err := Run(incomplete, platform, Options{CrowdAttrs: []int{0, 2}, TasksPerRound: 10})
		if err != nil {
			t.Fatal(err)
		}
		want := skyline.BNL(truth)
		if !reflect.DeepEqual(res.Skyline, want) {
			t.Fatalf("seed %d: Skyline = %v, want %v", seed, res.Skyline, want)
		}
	}
}

func TestTiesAreNotDominance(t *testing.T) {
	// Two identical objects: neither dominates the other, both skyline.
	truth := dataset.FromRows(
		[]dataset.Attribute{{Name: "a", Levels: 5}, {Name: "b", Levels: 5}},
		[][]int{{3, 2}, {3, 2}},
	)
	incomplete := truth.HideAttrs(1)
	platform := crowd.NewSimulated(truth, 1.0, nil)
	res, err := Run(incomplete, platform, Options{CrowdAttrs: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Skyline, []int{0, 1}) {
		t.Fatalf("Skyline = %v, want both tied objects", res.Skyline)
	}
}

func TestTasksPerRoundRespected(t *testing.T) {
	truth, incomplete := setup(t, 92, 100, 4, []int{1, 2})
	rec := &recordingPlatform{inner: crowd.NewSimulated(truth, 1.0, nil)}
	res, err := Run(incomplete, rec, Options{CrowdAttrs: []int{1, 2}, TasksPerRound: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range rec.batches {
		if len(b) > 7 {
			t.Fatalf("round %d posted %d tasks, cap 7", i, len(b))
		}
	}
	if res.Rounds != len(rec.batches) {
		t.Fatalf("Rounds = %d, batches = %d", res.Rounds, len(rec.batches))
	}
}

type recordingPlatform struct {
	inner   crowd.Platform
	batches [][]crowd.Task
}

func (r *recordingPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	r.batches = append(r.batches, append([]crowd.Task(nil), tasks...))
	return r.inner.Post(tasks)
}

func TestNoDuplicateQuestions(t *testing.T) {
	truth, incomplete := setup(t, 93, 80, 4, []int{0, 3})
	rec := &recordingPlatform{inner: crowd.NewSimulated(truth, 1.0, nil)}
	if _, err := Run(incomplete, rec, Options{CrowdAttrs: []int{0, 3}, TasksPerRound: 15}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, b := range rec.batches {
		for _, task := range b {
			key := task.Expr.String()
			if seen[key] {
				t.Fatalf("task %q asked twice", key)
			}
			seen[key] = true
		}
	}
}

func TestValidation(t *testing.T) {
	truth, incomplete := setup(t, 94, 10, 3, []int{1})
	platform := crowd.NewSimulated(truth, 1.0, nil)
	cases := []struct {
		name string
		d    *dataset.Dataset
		opt  Options
	}{
		{"no crowd attrs", incomplete, Options{}},
		{"out of range", incomplete, Options{CrowdAttrs: []int{9}}},
		{"observed value in crowd attr", truth, Options{CrowdAttrs: []int{1}}},
		{"missing observed attr", truth.HideAttrs(0, 1), Options{CrowdAttrs: []int{1}}},
	}
	for _, tc := range cases {
		if _, err := Run(tc.d, platform, tc.opt); err == nil {
			t.Errorf("%s: Run accepted invalid input", tc.name)
		}
	}
}

func TestSmallerIsMoreRounds(t *testing.T) {
	// Fewer tasks per round must mean at least as many rounds (latency
	// scales inversely with the per-round budget).
	truth, incomplete := setup(t, 95, 80, 4, []int{1, 2})
	run := func(perRound int) int {
		platform := crowd.NewSimulated(truth, 1.0, nil)
		res, err := Run(incomplete, platform, Options{CrowdAttrs: []int{1, 2}, TasksPerRound: perRound})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	if small, large := run(5), run(50); small < large {
		t.Fatalf("rounds with batch 5 (%d) < rounds with batch 50 (%d)", small, large)
	}
}
