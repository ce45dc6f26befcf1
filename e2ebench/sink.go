package main

import (
	"container/heap"
	"fmt"
	"net/http"
	"sync"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/service"
)

// crowdSink is the benchmark's crowd: a service.TaskSink that answers
// every task the daemon opens from the hidden truth (crowd.Simulated,
// accuracy 1), at once or after a seeded delay, through POST
// /v1/answers/{id} on the benchmark's shared transport. Unlike
// service.Loopback it never drops a task and opens no connection of its
// own, so the crowd competes with the clients for the same two
// connections.
type crowdSink struct {
	api      *api
	delay    func(question string) time.Duration
	rec      *recorder
	truthMu  sync.Mutex
	platform *crowd.Simulated // guarded by truthMu; Simulated is single-caller

	mu     sync.Mutex
	queue  dueHeap      // guarded by mu
	tasks  []taskRecord // guarded by mu; traced pass only
	errs   int          // guarded by mu
	first  error        // guarded by mu
	opened int          // guarded by mu

	wake chan struct{} // capacity 1: a pending wake-up is enough
	work chan dueTask
	stop chan struct{}
	wg   sync.WaitGroup
}

// dueTask is one opened task with its answer, waiting for its due time.
type dueTask struct {
	task   service.PostedTask
	rel    ctable.Rel
	opened time.Time
	due    time.Time
}

// taskRecord is one delivered task as the traced pass sees it: when it
// opened, when the crowd sent its answer, and the queries the answer
// reached (several when the daemon deduplicated it).
type taskRecord struct {
	opened, sent time.Time
	queries      []string
}

// dueHeap orders pending tasks by due time.
type dueHeap []dueTask

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(dueTask)) }
func (h *dueHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	*h = old[:len(old)-1]
	return t
}

// newSink returns a stopped sink answering from truth; delay maps a
// question to its answer delay.
func newSink(a *api, truth *dataset.Dataset, delay func(string) time.Duration, rec *recorder) *crowdSink {
	return &crowdSink{
		api:      a,
		delay:    delay,
		rec:      rec,
		platform: crowd.NewSimulated(truth, 1, nil),
		wake:     make(chan struct{}, 1),
		work:     make(chan dueTask),
		stop:     make(chan struct{}),
	}
}

// start launches the dispatcher and one delivery worker per connection.
func (s *crowdSink) start() {
	s.wg.Add(1 + maxConns)
	//lint:ignore goroutine the dispatcher hands due tasks to the workers; stopSink closes stop and waits for it on wg
	go s.dispatch()
	for i := 0; i < maxConns; i++ {
		//lint:ignore goroutine delivery workers drain the work channel the dispatcher closes on stop; stopSink waits on wg
		go s.deliverLoop()
	}
}

// stopSink ends the dispatcher and the workers and waits for them.
// Tasks still pending are dropped; by then every query has finished.
func (s *crowdSink) stopSink() {
	close(s.stop)
	s.wg.Wait()
}

// Notify implements service.TaskSink: it answers each task from the
// truth and queues it for delivery at its due time. It never blocks on
// delivery.
func (s *crowdSink) Notify(tasks []service.PostedTask) {
	now := time.Now()
	due := make([]dueTask, 0, len(tasks))
	var perr error
	for _, t := range tasks {
		s.truthMu.Lock()
		answers, err := s.platform.Post([]crowd.Task{t.Task})
		s.truthMu.Unlock()
		if err != nil || len(answers) != 1 {
			perr = fmt.Errorf("crowd: task %s: %d answers, err %v", t.ID, len(answers), err)
			continue
		}
		due = append(due, dueTask{task: t, rel: answers[0].Rel, opened: now, due: now.Add(s.delay(t.Dataset + "|" + t.Task.Expr.String()))})
	}
	s.mu.Lock()
	s.opened += len(tasks)
	if perr != nil {
		s.fail(perr)
	}
	for _, d := range due {
		heap.Push(&s.queue, d)
	}
	s.mu.Unlock()
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// fail books a delivery error. Callers hold mu.
func (s *crowdSink) fail(err error) {
	s.errs++
	if s.first == nil {
		s.first = err
	}
}

// dispatch releases tasks to the workers as they fall due.
func (s *crowdSink) dispatch() {
	defer s.wg.Done()
	defer close(s.work)
	for {
		s.mu.Lock()
		var next *dueTask
		wait := time.Duration(-1)
		if len(s.queue) > 0 {
			if d := time.Until(s.queue[0].due); d <= 0 {
				t := heap.Pop(&s.queue).(dueTask)
				next = &t
			} else {
				wait = d
			}
		}
		s.mu.Unlock()
		if next != nil {
			select {
			case s.work <- *next:
			case <-s.stop:
				return
			}
			continue
		}
		var timer <-chan time.Time
		if wait >= 0 {
			timer = time.After(wait)
		}
		select {
		case <-s.wake:
		case <-timer:
		case <-s.stop:
			return
		}
	}
}

// deliverLoop posts answer callbacks until the dispatcher closes work.
func (s *crowdSink) deliverLoop() {
	defer s.wg.Done()
	for t := range s.work {
		start := time.Now()
		var receipt service.AnswerReceipt
		err := s.api.call(http.MethodPost, "/v1/answers/"+t.task.ID, service.AnswerRequest{Rel: t.rel.String()}, &receipt, http.StatusOK)
		end := time.Now()
		s.mu.Lock()
		if err != nil {
			s.fail(err)
		} else if s.rec != nil {
			s.tasks = append(s.tasks, taskRecord{opened: t.opened, sent: start, queries: receipt.Queries})
		}
		s.mu.Unlock()
		if err == nil && s.rec != nil {
			parent := ""
			if len(receipt.Queries) > 0 {
				parent = "query:" + receipt.Queries[0]
			}
			s.rec.add("task", t.task.ID, parent, t.opened, end)
			s.rec.add("callback", t.task.ID, "task:"+t.task.ID, start, end)
		}
	}
}

// result reports the tasks opened, the delivery errors and the first of
// them, and (traced pass) every delivered task.
func (s *crowdSink) result() (opened, errs int, first error, tasks []taskRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opened, s.errs, s.first, append([]taskRecord(nil), s.tasks...)
}
