package crowd

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
)

func truthTable() *dataset.Dataset {
	return dataset.FromRows(
		[]dataset.Attribute{{Name: "a", Levels: 10}, {Name: "b", Levels: 10}},
		[][]int{{3, 7}, {5, 7}},
	)
}

// mustPost fails the test on a round-level error — the fault-free
// platforms under test must never produce one.
func mustPost(tb testing.TB, p Platform, tasks []Task) []Answer {
	tb.Helper()
	answers, err := p.Post(tasks)
	if err != nil {
		tb.Fatalf("Post: %v", err)
	}
	return answers
}

func TestPerfectWorkersAnswerTruth(t *testing.T) {
	truth := truthTable()
	p := NewSimulated(truth, 1.0, nil)
	tasks := []Task{
		{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)},                         // 3 vs 5 → LT
		{Expr: ctable.GTConst(ctable.Var{Obj: 1, Attr: 0}, 5)},                         // 5 vs 5 → EQ
		{Expr: ctable.GTVar(ctable.Var{Obj: 1, Attr: 0}, ctable.Var{Obj: 0, Attr: 0})}, // 5 vs 3 → GT
	}
	answers := mustPost(t, p, tasks)
	want := []ctable.Rel{ctable.LT, ctable.EQ, ctable.GT}
	for i, a := range answers {
		if a.Rel != want[i] {
			t.Errorf("answer %d = %v, want %v", i, a.Rel, want[i])
		}
		if a.Task != tasks[i] {
			t.Errorf("answer %d task mismatch", i)
		}
	}
}

// TestSimulatedAnswersEveryTask pins the fault-free simulator's side of
// the Platform contract: one answer per posted task, in task order, and
// an empty batch answered with nothing.
func TestSimulatedAnswersEveryTask(t *testing.T) {
	p := NewSimulated(truthTable(), 1.0, nil)
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)}
	if got := mustPost(t, p, []Task{task, task}); len(got) != 2 || got[0].Task != task || got[1].Task != task {
		t.Errorf("two-task batch answered %v", got)
	}
	if got := mustPost(t, p, []Task{task}); len(got) != 1 {
		t.Errorf("one-task batch answered %d tasks", len(got))
	}
	if got := mustPost(t, p, nil); got != nil {
		t.Errorf("empty batch answered %v", got)
	}
}

func TestMajorityVotingBeatsSingleWorker(t *testing.T) {
	truth := truthTable()
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)} // truth LT
	const trials = 20000
	const accuracy = 0.8

	count := func(workers int) float64 {
		p := NewSimulated(truth, accuracy, rand.New(rand.NewSource(77)))
		p.WorkersPerTask = workers
		correct := 0
		for i := 0; i < trials; i++ {
			if mustPost(t, p, []Task{task})[0].Rel == ctable.LT {
				correct++
			}
		}
		return float64(correct) / trials
	}

	single := count(1)
	majority := count(3)
	if math.Abs(single-accuracy) > 0.02 {
		t.Errorf("single-worker accuracy = %v, want ~%v", single, accuracy)
	}
	if majority <= single {
		t.Errorf("3-worker majority accuracy %v not better than single %v", majority, single)
	}
	// Analytical check: with w=0.8 and ties broken by the first vote,
	// P(correct) = P(≥2 correct) + P(exactly 1 correct, votes split 1/1/1,
	// first vote correct). P(≥2) = 3·0.8²·0.2 + 0.8³ = 0.896; the 1/1/1
	// split has probability 3!·(0.8·0.1·0.1) = 0.048, first-correct share
	// 1/3 → 0.016. Total 0.912.
	if math.Abs(majority-0.912) > 0.02 {
		t.Errorf("majority accuracy = %v, want ~0.912", majority)
	}
}

func TestZeroAccuracyNeverTruth(t *testing.T) {
	truth := truthTable()
	p := NewSimulated(truth, 0.0, rand.New(rand.NewSource(78)))
	p.WorkersPerTask = 1
	task := Task{Expr: ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)} // truth LT
	for i := 0; i < 200; i++ {
		if mustPost(t, p, []Task{task})[0].Rel == ctable.LT {
			t.Fatal("zero-accuracy worker answered the truth")
		}
	}
}

func TestNewSimulatedValidatesAccuracy(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSimulated(%v) did not panic", bad)
				}
			}()
			NewSimulated(truthTable(), bad, nil)
		}()
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	truth := truthTable()
	task := Task{Expr: ctable.GTConst(ctable.Var{Obj: 1, Attr: 1}, 3)}
	run := func() []ctable.Rel {
		p := NewSimulated(truth, 0.7, rand.New(rand.NewSource(99)))
		var out []ctable.Rel
		for i := 0; i < 50; i++ {
			out = append(out, mustPost(t, p, []Task{task})[0].Rel)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different answers")
		}
	}
}

func TestTaskString(t *testing.T) {
	tk := Task{Expr: ctable.LTConst(ctable.Var{Obj: 4, Attr: 1}, 2)}
	s := tk.String()
	if !strings.Contains(s, "Var(o5,a2)") || !strings.Contains(s, "2") {
		t.Errorf("Task.String = %q", s)
	}
	tv := Task{Expr: ctable.GTVar(ctable.Var{Obj: 4, Attr: 1}, ctable.Var{Obj: 1, Attr: 1})}
	if s := tv.String(); !strings.Contains(s, "Var(o2,a2)") {
		t.Errorf("Task.String = %q", s)
	}
}
