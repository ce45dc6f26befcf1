package crowd

import (
	"fmt"
	"math/rand"
	"sort"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
)

// Worker is one simulated crowd worker with an individual accuracy — the
// heterogeneous-marketplace model behind the paper's §7 remark that "in
// practice, we could select the workers whose accuracies being above one
// certain value to answer tasks ... this kind of worker recruitment is
// supported by AMT".
type Worker struct {
	// ID labels the worker for reporting.
	ID string
	// Accuracy is this worker's probability of answering the true
	// relation; a wrong answer picks one of the other two relations
	// uniformly.
	Accuracy float64
	// Answered counts the tasks this worker has voted on.
	Answered int
}

// Pool is a Platform over a heterogeneous worker population: each task is
// assigned to VotesPerTask distinct eligible workers chosen at random, and
// their votes are aggregated by majority. Recruitment mimics AMT's
// qualification filters: only workers at or above MinAccuracy are
// eligible.
type Pool struct {
	Truth        *dataset.Dataset
	Workers      []*Worker
	VotesPerTask int
	// MinAccuracy is the recruitment threshold; workers below it never
	// receive tasks.
	MinAccuracy float64
	Rng         *rand.Rand
}

// NewPool builds a pool of n workers whose accuracies are drawn uniformly
// from [minAcc, maxAcc], with the paper's default of three votes per task
// and no recruitment filter.
func NewPool(truth *dataset.Dataset, n int, minAcc, maxAcc float64, rng *rand.Rand) *Pool {
	if n < 1 {
		panic(fmt.Sprintf("crowd: pool of %d workers", n))
	}
	if minAcc < 0 || maxAcc > 1 || minAcc > maxAcc {
		panic(fmt.Sprintf("crowd: accuracy range [%v,%v] invalid", minAcc, maxAcc))
	}
	workers := make([]*Worker, n)
	for i := range workers {
		workers[i] = &Worker{
			ID:       fmt.Sprintf("w%03d", i+1),
			Accuracy: minAcc + rng.Float64()*(maxAcc-minAcc),
		}
	}
	return &Pool{Truth: truth, Workers: workers, VotesPerTask: 3, Rng: rng}
}

// Eligible returns the workers passing the recruitment threshold, in pool
// order.
func (p *Pool) Eligible() []*Worker {
	var out []*Worker
	for _, w := range p.Workers {
		if w.Accuracy >= p.MinAccuracy {
			out = append(out, w)
		}
	}
	return out
}

// Post assigns every task to VotesPerTask distinct eligible workers and
// majority-votes their answers (ties broken by the first vote). It fails
// the round — a recruitment outage, no answers delivered — when the
// recruitment threshold leaves no eligible worker.
func (p *Pool) Post(tasks []Task) ([]Answer, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	eligible := p.Eligible()
	if len(eligible) == 0 {
		return nil, fmt.Errorf("crowd: recruitment threshold %v leaves no eligible workers", p.MinAccuracy)
	}

	votes := p.VotesPerTask
	if votes < 1 {
		votes = 1
	}
	// Index scratch for sampling distinct voters per task.
	idx := make([]int, len(eligible))
	for i := range idx {
		idx[i] = i
	}
	answers := make([]Answer, len(tasks))
	for i, task := range tasks {
		truth := ctable.TrueRel(p.Truth, task.Expr)
		counts := [3]int{}
		first := truth
		for v := 0; v < votes; v++ {
			var w *Worker
			if v < len(eligible) {
				// Partial Fisher-Yates: position v gets a uniformly
				// random not-yet-picked worker.
				j := v + p.Rng.Intn(len(eligible)-v)
				idx[v], idx[j] = idx[j], idx[v]
				w = eligible[idx[v]]
			} else {
				// More votes than workers: cycle.
				w = eligible[v%len(eligible)]
			}
			w.Answered++
			ans := workerAnswer(p.Rng, w.Accuracy, truth)
			if v == 0 {
				first = ans
			}
			counts[ans]++
		}
		answers[i] = Answer{Task: task, Rel: majority(counts, first)}
	}
	return answers, nil
}

// MeanEligibleAccuracy reports the average accuracy of the recruited
// workers — what raising MinAccuracy buys.
func (p *Pool) MeanEligibleAccuracy() float64 {
	eligible := p.Eligible()
	if len(eligible) == 0 {
		return 0
	}
	sum := 0.0
	for _, w := range eligible {
		sum += w.Accuracy
	}
	return sum / float64(len(eligible))
}

// TopWorkers returns the ids of the k workers who answered the most
// tasks, for reporting.
func (p *Pool) TopWorkers(k int) []string {
	ws := append([]*Worker(nil), p.Workers...)
	sort.SliceStable(ws, func(a, b int) bool { return ws[a].Answered > ws[b].Answered })
	if k > len(ws) {
		k = len(ws)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = ws[i].ID
	}
	return out
}
