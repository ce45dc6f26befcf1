// Package crowd models the crowdsourcing platform of the paper's
// crowdsourcing phase (§6): tasks are triple-choice micro-questions
// ("is the left operand larger than, smaller than, or equal to the right
// operand?"), posted in batches (iterations), each answered by several
// workers whose votes are aggregated by majority.
//
// The live marketplace (AMT in the paper's §7.5) is replaced by a
// simulator that answers from the hidden ground-truth dataset with a
// configurable worker accuracy — exactly the worker model the paper's own
// offline experiments use (accuracy 0.7–1.0, three workers per task,
// majority voting).
//
// Real marketplaces are lossy: HITs expire unanswered, workers straggle,
// and the platform itself has outages. The Platform contract is therefore
// fallible — Post may return a partial answer set and/or a round-level
// error — and the Unreliable wrapper injects exactly those failure modes
// (seeded, deterministic) into any backend for testing and benchmarking.
package crowd

import (
	"fmt"
	"math/rand"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
)

// Task is one crowd micro-question, identified by the expression whose
// operand relation it asks about.
type Task struct {
	Expr ctable.Expr
}

// String renders the task as the question a worker sees.
func (t Task) String() string {
	e := t.Expr
	switch e.Kind {
	case ctable.VarLTConst, ctable.VarGTConst:
		return fmt.Sprintf("Is %v larger than, smaller than, or equal to %d?", e.X, e.C)
	case ctable.VarGTVar:
		return fmt.Sprintf("Is %v larger than, smaller than, or equal to %v?", e.X, e.Y)
	default:
		return fmt.Sprintf("Task(%v)", e)
	}
}

// Answer is the aggregated (majority-voted) response to a task: the
// asserted relation between the expression's left and right operands.
type Answer struct {
	Task Task
	Rel  ctable.Rel
}

// Platform is the interface BayesCrowd posts batches of tasks to. One
// Post call is one iteration/round (or one retry of a round) in the
// paper's latency model.
//
// The contract is fallible, because live marketplaces are:
//
//   - Post may return a partial answer set: every returned Answer must
//     correspond to one of the posted tasks, but tasks may go unanswered
//     (an expired HIT, a straggling worker). Unanswered tasks stay
//     undecided and the caller may re-post them later.
//   - Post may return a round-level error (a platform outage). Any
//     answers returned alongside the error arrived before the failure
//     and are valid; the caller may retry the still-unanswered tasks.
//
// A nil error with a full answer set is the fault-free fast path the
// simulated backends take.
type Platform interface {
	Post(tasks []Task) ([]Answer, error)
}

// DelayedAnswer is an Answer stamped with its crowd latency: the number
// of logical ticks after posting until the answer reaches the
// requester. Zero means the answer is available within the posting tick
// (a crowd that keeps up with the window).
type DelayedAnswer struct {
	Answer
	// Delay is the arrival lag in ticks; never negative.
	Delay int
}

// AsyncPlatform is a Platform that also models crowd latency: PostAsync
// returns the same answer set Post would, each answer stamped with a
// seeded arrival delay. The caller owns the clock — it holds each
// answer until Delay ticks have elapsed — so the platform stays a pure,
// deterministic function of its seed and the engine never blocks
// waiting for the crowd.
//
// PostAsync inherits Post's fallibility contract: a partial answer set
// with a nil error means the missing tasks were dropped, and a
// round-level error means the whole call failed (any answers returned
// alongside it are valid).
type AsyncPlatform interface {
	Platform
	PostAsync(tasks []Task) ([]DelayedAnswer, error)
}

// PostDelayed posts the batch through the platform's latency model when
// it has one, and otherwise adapts a synchronous Platform by stamping
// every answer with delay zero — a perfectly prompt crowd. Streaming
// callers use it so any Platform plugs into the asynchronous loop.
func PostDelayed(p Platform, tasks []Task) ([]DelayedAnswer, error) {
	if ap, ok := p.(AsyncPlatform); ok {
		return ap.PostAsync(tasks)
	}
	answers, err := p.Post(tasks)
	out := make([]DelayedAnswer, len(answers))
	for i, a := range answers {
		out[i] = DelayedAnswer{Answer: a}
	}
	return out, err
}

// Simulated is a Platform that answers from hidden ground truth with
// imperfect workers.
type Simulated struct {
	// Truth is the complete dataset the workers consult.
	Truth *dataset.Dataset
	// Accuracy is the per-worker probability of answering the true
	// relation; a wrong worker picks one of the two other relations
	// uniformly. The paper's default is 1.0.
	Accuracy float64
	// WorkersPerTask is the number of votes per task (paper default 3).
	WorkersPerTask int
	// Rng drives worker errors; required when Accuracy < 1.
	Rng *rand.Rand
}

// NewSimulated returns a simulated platform with the paper's defaults:
// three workers per task, majority voting. Imperfect workers need a
// randomness source: accuracy < 1 with a nil rng is rejected rather than
// silently simulating perfect workers.
func NewSimulated(truth *dataset.Dataset, accuracy float64, rng *rand.Rand) *Simulated {
	if accuracy < 0 || accuracy > 1 {
		panic(fmt.Sprintf("crowd: accuracy %v outside [0,1]", accuracy))
	}
	if accuracy < 1 && rng == nil {
		panic(fmt.Sprintf("crowd: accuracy %v needs an Rng to drive worker errors", accuracy))
	}
	return &Simulated{Truth: truth, Accuracy: accuracy, WorkersPerTask: 3, Rng: rng}
}

// Post answers one batch of tasks: every task is voted on by
// WorkersPerTask simulated workers and the majority relation is returned
// (ties broken by the first vote, mirroring a requester accepting the
// earliest answer). The batch counts as one round. The simulator itself
// never drops answers; it fails only on a misconfigured worker model
// (Accuracy < 1 without an Rng — constructing via NewSimulated rules
// this out).
func (s *Simulated) Post(tasks []Task) ([]Answer, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	if s.Accuracy < 1 && s.Rng == nil {
		return nil, fmt.Errorf("crowd: accuracy %v needs an Rng to drive worker errors", s.Accuracy)
	}

	answers := make([]Answer, len(tasks))
	for i, task := range tasks {
		truth := ctable.TrueRel(s.Truth, task.Expr)
		answers[i] = Answer{Task: task, Rel: s.vote(truth)}
	}
	return answers, nil
}

// vote simulates WorkersPerTask workers and aggregates by majority.
func (s *Simulated) vote(truth ctable.Rel) ctable.Rel {
	workers := s.WorkersPerTask
	if workers < 1 {
		workers = 1
	}
	counts := [3]int{}
	first := truth
	for w := 0; w < workers; w++ {
		ans := workerAnswer(s.Rng, s.Accuracy, truth)
		if w == 0 {
			first = ans
		}
		counts[ans]++
	}
	return majority(counts, first)
}

// workerAnswer returns one worker's response: the truth with probability
// accuracy, otherwise one of the two wrong relations uniformly. It draws
// nothing from rng when accuracy is 1, so rng may then be nil.
func workerAnswer(rng *rand.Rand, accuracy float64, truth ctable.Rel) ctable.Rel {
	if accuracy >= 1 {
		return truth
	}
	if rng.Float64() < accuracy {
		return truth
	}
	wrong := [2]ctable.Rel{}
	k := 0
	for _, r := range []ctable.Rel{ctable.LT, ctable.EQ, ctable.GT} {
		if r != truth {
			wrong[k] = r
			k++
		}
	}
	return wrong[rng.Intn(2)]
}

// majority returns the relation with the most votes, breaking ties in
// favour of first (the earliest vote, mirroring a requester accepting
// the earliest answer).
func majority(counts [3]int, first ctable.Rel) ctable.Rel {
	best := first
	for _, r := range []ctable.Rel{ctable.LT, ctable.EQ, ctable.GT} {
		if counts[r] > counts[best] {
			best = r
		}
	}
	return best
}
