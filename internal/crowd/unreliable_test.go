package crowd

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/ctable"
)

func someTasks(n int) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Expr: ctable.LTConst(ctable.Var{Obj: i % 2, Attr: i % 2}, 5)}
	}
	return tasks
}

func TestUnreliableZeroFaultsIsTransparent(t *testing.T) {
	truth := truthTable()
	tasks := someTasks(6)
	direct := mustPost(t, NewSimulated(truth, 1.0, nil), tasks)
	wrapped := mustPost(t, NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0, 0, nil), tasks)
	if !reflect.DeepEqual(direct, wrapped) {
		t.Fatalf("zero-fault wrapper changed answers:\n%v\n%v", direct, wrapped)
	}
}

func TestUnreliableDropsAreDeterministic(t *testing.T) {
	truth := truthTable()
	tasks := someTasks(8)
	run := func() ([][]Answer, int) {
		u := NewUnreliable(NewSimulated(truth, 1.0, nil), 0.3, 0, 0, rand.New(rand.NewSource(11)))
		var rounds [][]Answer
		for i := 0; i < 20; i++ {
			rounds = append(rounds, mustPost(t, u, tasks))
		}
		return rounds, u.Dropped
	}
	r1, d1 := run()
	r2, d2 := run()
	if !reflect.DeepEqual(r1, r2) || d1 != d2 {
		t.Fatal("same seed produced a different fault schedule")
	}
	if d1 == 0 {
		t.Fatal("drop probability 0.3 dropped nothing in 160 tasks")
	}
	answered := 0
	for _, answers := range r1 {
		answered += len(answers)
	}
	if answered != 160-d1 {
		t.Fatalf("%d answers delivered with %d of 160 dropped", answered, d1)
	}
}

func TestUnreliableOutage(t *testing.T) {
	truth := truthTable()
	u := NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0.5, 0, rand.New(rand.NewSource(3)))
	tasks := someTasks(4)
	failed, sawRound := 0, false
	for i := 0; i < 40; i++ {
		answers, err := u.Post(tasks)
		if err != nil {
			if !errors.Is(err, ErrOutage) {
				t.Fatalf("outage error = %v", err)
			}
			if len(answers) != 0 {
				t.Fatal("outage round delivered answers")
			}
			failed++
		} else {
			if len(answers) != len(tasks) {
				t.Fatal("drop-free success round lost answers")
			}
			sawRound = true
		}
	}
	if failed == 0 || !sawRound {
		t.Fatalf("outages=%d success=%v after 40 rounds at p=0.5", failed, sawRound)
	}
	if failed != u.Outages {
		t.Fatalf("%d rounds failed, outages = %d", failed, u.Outages)
	}
}

func TestUnreliableSpam(t *testing.T) {
	truth := truthTable()
	// Perfect inner workers; any wrong relation must come from the
	// spammer injection.
	u := NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0, 0.5, rand.New(rand.NewSource(7)))
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)} // truth LT
	wrong := 0
	for i := 0; i < 300; i++ {
		if mustPost(t, u, []Task{task})[0].Rel != ctable.LT {
			wrong++
		}
	}
	// A spammed answer is uniform over 3 relations, so ~1/3 of spammed
	// answers still look right: expect ≈ 300·0.5·(2/3) = 100 wrong.
	if wrong < 60 || wrong > 140 {
		t.Fatalf("wrong answers = %d, want ~100", wrong)
	}
	if u.Spammed == 0 || u.Dropped != 0 || u.Outages != 0 {
		t.Fatalf("injections: spam=%d drop=%d outage=%d", u.Spammed, u.Dropped, u.Outages)
	}
}

func TestUnreliableValidation(t *testing.T) {
	inner := NewSimulated(truthTable(), 1.0, nil)
	for _, fn := range []func(){
		func() { NewUnreliable(inner, -0.1, 0, 0, nil) },
		func() { NewUnreliable(inner, 0, 1.0, 0, nil) }, // 1.0 would never terminate
		func() { NewUnreliable(inner, 0.2, 0, 0, nil) }, // faults need an Rng
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewUnreliable did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSimulatedRejectsImperfectWorkersWithoutRng(t *testing.T) {
	// The documented contract says Rng is required when Accuracy < 1;
	// faking perfect workers instead would silently skew experiments.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewSimulated(accuracy<1, nil rng) did not panic")
			}
		}()
		NewSimulated(truthTable(), 0.8, nil)
	}()

	// Struct-literal construction bypasses the constructor; Post must
	// refuse the round rather than answer with the truth.
	p := &Simulated{Truth: truthTable(), Accuracy: 0.8, WorkersPerTask: 3}
	answers, err := p.Post(someTasks(2))
	if err == nil || len(answers) != 0 {
		t.Fatalf("misconfigured Post: answers=%v err=%v", answers, err)
	}
}

// TestUnreliableDropSpamPrecedence pins the injection schedule's draw
// order by replaying it against an independent Rng with the same seed:
// one drop draw and one spam draw per answer — consumed whether or not
// the drop fires — with the drop winning when both fire. The regression
// it guards: the spam draw used to be skipped for dropped answers, so a
// drop shifted every later task's fault schedule.
func TestUnreliableDropSpamPrecedence(t *testing.T) {
	truth := truthTable()
	tasks := someTasks(40)
	const seed, dropP, spamP = 29, 0.4, 0.4

	u := NewUnreliable(NewSimulated(truth, 1.0, nil), dropP, 0, spamP, rand.New(rand.NewSource(seed)))
	got := mustPost(t, u, tasks)

	// Oracle replay: OutageProb is zero, so no outage draw; then per
	// answer a drop draw, a spam draw, and — only for kept, spammed
	// answers — one relation draw.
	oracle := rand.New(rand.NewSource(seed))
	var want []Answer
	bothFired, dropped, spammed := 0, 0, 0
	for _, task := range tasks {
		drop := oracle.Float64() < dropP
		spam := oracle.Float64() < spamP
		if drop && spam {
			bothFired++
		}
		if drop {
			dropped++
			continue
		}
		rel := ctable.TrueRel(truth, task.Expr)
		if spam {
			spammed++
			rel = []ctable.Rel{ctable.LT, ctable.EQ, ctable.GT}[oracle.Intn(3)]
		}
		want = append(want, Answer{Task: task, Rel: rel})
	}
	if bothFired == 0 {
		t.Fatalf("seed %d no longer triggers drop and spam on the same answer; pick another", seed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fault schedule diverged from the documented draw order\n got: %v\nwant: %v", got, want)
	}
	if u.Dropped != dropped || u.Spammed != spammed {
		t.Fatalf("counters: dropped=%d spammed=%d, want %d/%d (drop must win when both fire)",
			u.Dropped, u.Spammed, dropped, spammed)
	}
}

// TestUnreliableDelaysDeterministicAndBounded checks the PostAsync
// latency model: every delay lies in [MinDelay, MaxDelay], the schedule
// reproduces under the seed, and a degenerate range is a constant
// delay needing no Rng.
func TestUnreliableDelaysDeterministicAndBounded(t *testing.T) {
	truth := truthTable()
	tasks := someTasks(12)
	run := func() []int {
		u := NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0, 0, rand.New(rand.NewSource(17)))
		u.MinDelay, u.MaxDelay = 1, 5
		var delays []int
		for round := 0; round < 10; round++ {
			answers, err := u.PostAsync(tasks)
			if err != nil {
				t.Fatalf("PostAsync: %v", err)
			}
			for _, a := range answers {
				if a.Delay < 1 || a.Delay > 5 {
					t.Fatalf("delay %d outside [1,5]", a.Delay)
				}
				delays = append(delays, a.Delay)
			}
		}
		return delays
	}
	d1, d2 := run(), run()
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("same seed produced a different delay schedule")
	}
	spread := map[int]bool{}
	for _, d := range d1 {
		spread[d] = true
	}
	if len(spread) < 2 {
		t.Fatalf("120 draws over [1,5] produced only %v", spread)
	}

	// Constant delay: no Rng required, every answer stamped MinDelay.
	u := NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0, 0, nil)
	u.MinDelay, u.MaxDelay = 3, 3
	answers, err := u.PostAsync(tasks)
	if err != nil {
		t.Fatalf("PostAsync: %v", err)
	}
	for _, a := range answers {
		if a.Delay != 3 {
			t.Fatalf("constant-delay answer stamped %d, want 3", a.Delay)
		}
	}

	// Misconfigurations panic loudly.
	for _, fn := range []func(){
		func() {
			bad := NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0, 0, nil)
			bad.MinDelay = -1
			bad.PostAsync(tasks)
		},
		func() {
			bad := NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0, 0, nil)
			bad.MinDelay, bad.MaxDelay = 0, 4
			bad.PostAsync(tasks)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid PostAsync configuration did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestPostDelayedAdaptsSynchronousPlatforms checks the adapter: a plain
// Platform's answers come back stamped with delay zero, while an
// AsyncPlatform's own latency model is used.
func TestPostDelayedAdaptsSynchronousPlatforms(t *testing.T) {
	truth := truthTable()
	tasks := someTasks(5)

	sync := NewSimulated(truth, 1.0, nil)
	delayed, err := PostDelayed(sync, tasks)
	if err != nil {
		t.Fatalf("PostDelayed: %v", err)
	}
	if len(delayed) != len(tasks) {
		t.Fatalf("adapter returned %d answers for %d tasks", len(delayed), len(tasks))
	}
	for _, a := range delayed {
		if a.Delay != 0 {
			t.Fatalf("synchronous platform answer stamped delay %d, want 0", a.Delay)
		}
	}

	async := NewUnreliable(NewSimulated(truth, 1.0, nil), 0, 0, 0, nil)
	async.MinDelay, async.MaxDelay = 2, 2
	delayed, err = PostDelayed(async, tasks)
	if err != nil {
		t.Fatalf("PostDelayed: %v", err)
	}
	for _, a := range delayed {
		if a.Delay != 2 {
			t.Fatalf("async platform answer stamped delay %d, want 2 (its own model)", a.Delay)
		}
	}
}
