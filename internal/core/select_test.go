package core

import (
	"math/rand"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
	"bayescrowd/internal/skyline"
)

func uniformDist(n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = 1 / float64(n)
	}
	return d
}

// buildSelectFixture returns a c-table with two undecided conditions that
// share one expression, plus an evaluator over uniform distributions.
func buildSelectFixture() (*ctable.CTable, *prob.Evaluator, map[int]float64) {
	x := ctable.Var{Obj: 0, Attr: 0}
	y := ctable.Var{Obj: 1, Attr: 0}
	z := ctable.Var{Obj: 2, Attr: 0}
	shared := ctable.LTConst(x, 5)

	ct := &ctable.CTable{Conds: []*ctable.Condition{
		ctable.FromClauses([][]ctable.Expr{{shared, ctable.GTConst(y, 3)}}),
		ctable.FromClauses([][]ctable.Expr{{shared, ctable.GTConst(z, 7)}}),
	}}
	ev := prob.NewEvaluator(prob.Dists{
		x: uniformDist(10), y: uniformDist(10), z: uniformDist(10),
	})
	probs := map[int]float64{
		0: ev.Prob(ct.Conds[0]),
		1: ev.Prob(ct.Conds[1]),
	}
	return ct, ev, probs
}

func TestFBSPicksMostFrequentExpression(t *testing.T) {
	ct, ev, probs := buildSelectFixture()
	opt, err := Options{Budget: 10, Latency: 10, Strategy: FBS, Rng: rand.New(rand.NewSource(1))}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// The shared expression appears twice across the top-k conditions;
	// the first chosen object must pick it.
	tasks := new(Selection).selectBatch(opt, ct, ev, probs, 2)
	if len(tasks) == 0 {
		t.Fatal("no tasks selected")
	}
	want := ctable.LTConst(ctable.Var{Obj: 0, Attr: 0}, 5)
	if tasks[0].Expr != want {
		t.Fatalf("first task = %v, want the shared most-frequent expression %v", tasks[0].Expr, want)
	}
}

func TestBatchRespectsConflicts(t *testing.T) {
	ct, ev, probs := buildSelectFixture()
	opt, err := Options{Budget: 10, Latency: 10, Strategy: FBS, Rng: rand.New(rand.NewSource(1))}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	tasks := new(Selection).selectBatch(opt, ct, ev, probs, 2)
	// Both conditions prefer the shared expression on x, but the second
	// task must avoid x and fall back to its private expression.
	if len(tasks) != 2 {
		t.Fatalf("selected %d tasks, want 2", len(tasks))
	}
	seen := map[ctable.Var]bool{}
	var buf []ctable.Var
	for _, task := range tasks {
		for _, v := range task.Expr.Vars(buf[:0]) {
			if seen[v] {
				t.Fatalf("conflicting batch: %v twice", v)
			}
			seen[v] = true
		}
	}
}

func TestUBSPicksHighestUtility(t *testing.T) {
	// Condition: (x < 5) ∨ (y > 8) with uniform 10-level vars. The x
	// expression splits the probability mass nearly in half (utility
	// high); the y expression is lopsided (utility low). UBS must ask x.
	x := ctable.Var{Obj: 0, Attr: 0}
	y := ctable.Var{Obj: 1, Attr: 0}
	cond := ctable.FromClauses([][]ctable.Expr{{ctable.LTConst(x, 5), ctable.GTConst(y, 8)}})
	ev := prob.NewEvaluator(prob.Dists{x: uniformDist(10), y: uniformDist(10)})
	opt, err := Options{Budget: 10, Latency: 10, Strategy: UBS, Rng: rand.New(rand.NewSource(1))}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := new(Selection).pickExpr(opt, ev, cond, ev.Prob(cond))
	if !ok {
		t.Fatal("no expression picked")
	}
	if e != ctable.LTConst(x, 5) {
		t.Fatalf("UBS picked %v, want the high-utility x comparison", e)
	}
}

func TestHHSEarlyStopLimitsEvaluations(t *testing.T) {
	// With m=1, HHS stops scanning after the first non-improving
	// expression; the pick must still be valid.
	ct, ev, probs := buildSelectFixture()
	opt, err := Options{Budget: 10, Latency: 10, Strategy: HHS, M: 1, Rng: rand.New(rand.NewSource(1))}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	e, ok := new(Selection).pickExpr(opt, ev, ct.Conds[0], probs[0])
	if !ok {
		t.Fatal("no expression picked")
	}
	found := false
	for _, cand := range ct.Conds[0].Exprs() {
		if cand == e {
			found = true
		}
	}
	if !found {
		t.Fatalf("HHS picked %v, not an expression of the condition", e)
	}
}

func TestPickExprAllConflicting(t *testing.T) {
	ct, ev, probs := buildSelectFixture()
	opt, err := Options{Budget: 10, Latency: 10, Strategy: FBS, Rng: rand.New(rand.NewSource(1))}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	used := map[ctable.Var]bool{
		{Obj: 0, Attr: 0}: true,
		{Obj: 1, Attr: 0}: true,
	}
	if _, ok := (&Selection{used: used}).pickExpr(opt, ev, ct.Conds[0], probs[0]); ok {
		t.Fatal("picked an expression despite every variable being used")
	}
}

// flakyPlatform drops a fraction of the answers (worker no-shows); the
// framework must still terminate and produce a result.
type flakyPlatform struct {
	inner crowd.Platform
	rng   *rand.Rand
	drop  float64
}

func (f *flakyPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	answers, err := f.inner.Post(tasks)
	if err != nil {
		return answers, err
	}
	kept := answers[:0]
	for _, a := range answers {
		if f.rng.Float64() >= f.drop {
			kept = append(kept, a)
		}
	}
	return kept, nil
}

func TestDroppedAnswersDoNotWedgeTheRun(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	truth := dataset.GenIndependent(rng, 100, 4, 8)
	incomplete := truth.InjectMissing(rng, 0.15)
	platform := &flakyPlatform{
		inner: crowd.NewSimulated(truth, 1.0, nil),
		rng:   rand.New(rand.NewSource(74)),
		drop:  0.3,
	}
	res, err := Run(incomplete, platform, Options{
		Alpha: 0.3, Budget: 60, Latency: 6, Strategy: FBS,
		MarginalsOnly: true,
		Rng:           rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > 6 || res.TasksPosted > 60 {
		t.Fatalf("constraints violated: %d tasks, %d rounds", res.TasksPosted, res.Rounds)
	}
	want := skyline.BNL(truth)
	if len(res.Answers) == 0 && len(want) > 0 {
		t.Fatal("no answers despite non-empty skyline")
	}
}

func TestNoInferenceNeedsMoreTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	truth := dataset.GenIndependent(rng, 150, 4, 8)
	incomplete := truth.InjectMissing(rng, 0.15)

	resolveAll := func(noInference bool) int {
		res, err := Run(incomplete, crowd.NewSimulated(truth, 1.0, nil), Options{
			Alpha: 0, Budget: 1 << 20, Latency: 1 << 18, Strategy: FBS,
			MarginalsOnly: true,
			NoInference:   noInference,
			Rng:           rand.New(rand.NewSource(76)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Probs) != 0 {
			t.Fatal("conditions left undecided with unlimited budget")
		}
		return res.TasksPosted
	}
	with, without := resolveAll(false), resolveAll(true)
	if with >= without {
		t.Fatalf("propagation on used %d tasks, off used %d; propagation should save tasks", with, without)
	}
}
