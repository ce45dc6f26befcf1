package crowd

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/ctable"
)

func TestNewPoolAccuracyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := NewPool(truthTable(), 50, 0.6, 0.9, rng)
	if len(p.Workers) != 50 {
		t.Fatalf("pool size = %d", len(p.Workers))
	}
	for _, w := range p.Workers {
		if w.Accuracy < 0.6 || w.Accuracy > 0.9 {
			t.Fatalf("worker %s accuracy %v outside [0.6,0.9]", w.ID, w.Accuracy)
		}
	}
}

func TestNewPoolValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fn := range []func(){
		func() { NewPool(truthTable(), 0, 0.5, 0.9, rng) },
		func() { NewPool(truthTable(), 5, -0.1, 0.9, rng) },
		func() { NewPool(truthTable(), 5, 0.5, 1.1, rng) },
		func() { NewPool(truthTable(), 5, 0.9, 0.5, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewPool did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRecruitmentThresholdFiltersWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewPool(truthTable(), 100, 0.5, 1.0, rng)
	p.MinAccuracy = 0.8
	for _, w := range p.Eligible() {
		if w.Accuracy < 0.8 {
			t.Fatalf("ineligible worker %s recruited", w.ID)
		}
	}
	if m := p.MeanEligibleAccuracy(); m < 0.85 || m > 0.95 {
		t.Fatalf("mean eligible accuracy = %v, want ~0.9", m)
	}
	// Answer a batch; only eligible workers may be used.
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)}
	mustPost(t, p, []Task{task, task, task})
	for _, w := range p.Workers {
		if w.Accuracy < 0.8 && w.Answered > 0 {
			t.Fatalf("below-threshold worker %s answered %d tasks", w.ID, w.Answered)
		}
	}
}

func TestRecruitmentImprovesAnswerQuality(t *testing.T) {
	truth := truthTable()
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)} // truth LT
	const trials = 8000

	correctRate := func(minAcc float64) float64 {
		p := NewPool(truth, 60, 0.4, 1.0, rand.New(rand.NewSource(3)))
		p.MinAccuracy = minAcc
		correct := 0
		for i := 0; i < trials; i++ {
			if mustPost(t, p, []Task{task})[0].Rel == ctable.LT {
				correct++
			}
		}
		return float64(correct) / trials
	}
	open := correctRate(0)
	selective := correctRate(0.85)
	if selective <= open {
		t.Fatalf("recruitment threshold did not improve accuracy: %v vs %v", selective, open)
	}
	if selective < 0.9 {
		t.Fatalf("selective pool accuracy = %v, want > 0.9", selective)
	}
}

func TestPoolStatsAndNoEligibleFails(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	p := NewPool(truthTable(), 10, 0.5, 0.7, rng)
	task := Task{Expr: ctable.GTConst(ctable.Var{Obj: 1, Attr: 0}, 3)}
	votes := func() int {
		sum := 0
		for _, w := range p.Workers {
			sum += w.Answered
		}
		return sum
	}
	if got := mustPost(t, p, []Task{task, task}); len(got) != 2 {
		t.Fatalf("two-task batch answered %d tasks", len(got))
	}
	if got := mustPost(t, p, nil); got != nil {
		t.Fatalf("empty batch answered %v", got)
	}
	if v := votes(); v != 2*p.VotesPerTask {
		t.Fatalf("workers cast %d votes, want %d", v, 2*p.VotesPerTask)
	}
	// An over-tight recruitment threshold is a round-level failure, not a
	// crash: no answers, an error, and no worker asked.
	p.MinAccuracy = 0.99
	answers, err := p.Post([]Task{task})
	if err == nil || len(answers) != 0 {
		t.Fatalf("empty eligible set: answers=%v err=%v", answers, err)
	}
	if v := votes(); v != 2*p.VotesPerTask {
		t.Fatalf("failed round cast votes: %d, want %d", v, 2*p.VotesPerTask)
	}
}

func TestPoolCyclesWhenVotesExceedWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := NewPool(truthTable(), 2, 1.0, 1.0, rng)
	p.VotesPerTask = 5
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)}
	answers := mustPost(t, p, []Task{task})
	if answers[0].Rel != ctable.LT {
		t.Fatalf("perfect pool answered %v", answers[0].Rel)
	}
	total := 0
	for _, w := range p.Workers {
		total += w.Answered
	}
	if total != 5 {
		t.Fatalf("votes = %d, want 5", total)
	}
}

func TestPoolLoadIsSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewPool(truthTable(), 30, 1.0, 1.0, rng)
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)}
	for i := 0; i < 300; i++ {
		mustPost(t, p, []Task{task})
	}
	// 900 votes over 30 workers → 30 each on average; nobody should be
	// starved or monopolised under uniform random assignment.
	for _, w := range p.Workers {
		if w.Answered < 10 || w.Answered > 60 {
			t.Fatalf("worker %s answered %d of ~30 expected", w.ID, w.Answered)
		}
	}
	if top := p.TopWorkers(3); len(top) != 3 {
		t.Fatalf("TopWorkers = %v", top)
	}
}

func TestPoolDistinctVotersPerTask(t *testing.T) {
	// With exactly 3 perfect workers and 3 votes, each task must use all
	// three distinct workers.
	rng := rand.New(rand.NewSource(7))
	p := NewPool(truthTable(), 3, 1.0, 1.0, rng)
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)}
	mustPost(t, p, []Task{task})
	for _, w := range p.Workers {
		if w.Answered != 1 {
			t.Fatalf("worker %s answered %d times for one 3-vote task", w.ID, w.Answered)
		}
	}
}

func TestMeanEligibleAccuracyEmptyPool(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewPool(truthTable(), 5, 0.5, 0.6, rng)
	p.MinAccuracy = 0.99
	if got := p.MeanEligibleAccuracy(); got != 0 {
		t.Fatalf("MeanEligibleAccuracy = %v with empty recruitment", got)
	}
}

// Pool should approach the homogeneous Simulated platform when all worker
// accuracies are equal.
func TestPoolMatchesSimulatedHomogeneous(t *testing.T) {
	truth := truthTable()
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)} // truth LT
	const trials = 20000
	pool := NewPool(truth, 50, 0.8, 0.8, rand.New(rand.NewSource(9)))
	correct := 0
	for i := 0; i < trials; i++ {
		if mustPost(t, pool, []Task{task})[0].Rel == ctable.LT {
			correct++
		}
	}
	got := float64(correct) / trials
	// Analytical 3-vote majority accuracy at w=0.8 (see crowd_test.go).
	if math.Abs(got-0.912) > 0.02 {
		t.Fatalf("pool majority accuracy = %v, want ~0.912", got)
	}
}
