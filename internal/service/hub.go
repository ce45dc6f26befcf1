package service

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
)

// UnitMu is crowd.UnitMu under its former service name, which e2ebench
// still uses.
const UnitMu = crowd.UnitMu

// Ledger is crowd.Ledger under its former service name, which e2ebench
// still uses.
type Ledger = crowd.Ledger

// PostedTask is the hub's notification of a freshly opened crowd task
// — what a TaskSink (the loopback driver, or a real marketplace
// bridge) needs to list it.
type PostedTask struct {
	// ID is the callback handle: answers return as
	// POST /v1/answers/{ID}.
	ID string
	// Dataset names the registered dataset the task's expression refers
	// to.
	Dataset string
	// Task is the library-level crowd task; Task.String() renders the
	// worker-facing question.
	Task crowd.Task
}

// TaskSink receives batches of freshly opened crowd tasks. Notify runs
// outside the hub lock on a query goroutine, so implementations may
// block briefly (enqueue) but must not call back into the hub
// synchronously.
type TaskSink interface {
	Notify(tasks []PostedTask)
}

// roundWait is one parked crowd round: the board task each posted task
// joined or opened, and the latch its goroutine blocks on until every
// task is settled.
type roundWait struct {
	q *query
	// open holds the board task per posted task, in posted order. Their
	// outcomes are written under the hub mutex before done closes, so
	// the post-wait read is ordered.
	open    []*crowd.OpenTask
	pending int
	done    chan struct{}
}

// collect assembles the round's answers in posted-task order — the
// order a synchronous platform returns them — and reports ErrDraining
// when drain failed any of the round's tasks.
func (rw *roundWait) collect() ([]crowd.Answer, error) {
	var answers []crowd.Answer
	var err error
	for _, ot := range rw.open {
		switch {
		case ot.Answered:
			answers = append(answers, crowd.Answer{Task: crowd.Task{Expr: ot.Key.Expr}, Rel: ot.Rel})
		case ot.Why == crowd.Failed:
			err = ErrDraining
		}
	}
	return answers, err
}

// hub is the service's crowd event loop state: the board of open tasks,
// deduplicated across queries by (dataset, expression), and the
// resolution paths (answer callback, deadline expiry, drain) that wake
// parked rounds. The board books every query's ledger; posting times
// on it are monotonic offsets from start.
type hub struct {
	sink  TaskSink
	start time.Time

	mu       sync.Mutex
	board    *crowd.Board // guarded by mu
	draining bool         // guarded by mu

	// cPosted, cAnswered and cExpired double as the lifetime tallies
	// behind /v1/healthz; cPosted counts unique tasks ever opened.
	cPosted, cDeduped, cAnswered, cExpired, cFailed *obs.Counter
	cChargedMu, cRefundedMu                         *obs.Counter
}

// newHub returns an empty hub writing its counters to reg.
func newHub(reg *obs.Registry, sink TaskSink) *hub {
	return &hub{
		sink:  sink,
		start: time.Now(),
		board: crowd.NewBoard(),

		cPosted:     reg.Counter("service.tasks.posted"),
		cDeduped:    reg.Counter("service.tasks.deduped"),
		cAnswered:   reg.Counter("service.tasks.answered"),
		cExpired:    reg.Counter("service.tasks.expired"),
		cFailed:     reg.Counter("service.tasks.failed"),
		cChargedMu:  reg.Counter("service.mu.charged"),
		cRefundedMu: reg.Counter("service.mu.refunded"),
	}
}

// taskID renders a board task number as the wire task id.
func taskID(n int) string { return "t" + strconv.Itoa(n) }

// register books one crowd round onto the board: every task reserves a
// full unit on the query's ledger and either joins an already-open task
// (a dedup hit — the crowd is asked once, the price will be split) or
// opens a fresh one. A repeat of a task earlier in the same round is a
// re-ask copy and always opens its own task, so every copy gets its own
// crowd answer. It returns the round's wait latch and the freshly
// opened tasks for the sink; the caller notifies outside the lock.
func (h *hub) register(q *query, tasks []crowd.Task) (*roundWait, []PostedTask, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.draining {
		return nil, nil, ErrDraining
	}
	rw := &roundWait{
		q:       q,
		open:    make([]*crowd.OpenTask, len(tasks)),
		pending: len(tasks),
		done:    make(chan struct{}),
	}
	at := int64(time.Since(h.start))
	var fresh []PostedTask
	for i, t := range tasks {
		ot, opened := h.board.Post(crowd.Key{Scope: q.ds.name, Expr: t.Expr}, at, &q.ledger, rw)
		rw.open[i] = ot
		if !opened {
			h.cDeduped.Add(1)
			continue
		}
		h.cPosted.Add(1)
		fresh = append(fresh, PostedTask{ID: taskID(ot.ID), Dataset: q.ds.name, Task: t})
	}
	return rw, fresh, nil
}

// notify forwards freshly opened tasks to the sink, outside the hub
// lock.
func (h *hub) notify(fresh []PostedTask) {
	if len(fresh) > 0 && h.sink != nil {
		h.sink.Notify(fresh)
	}
}

// resolve settles one open task with a crowd answer: the unit price
// splits exactly across the sharing requests (crowd.SplitMu), and
// rounds whose last task this was are woken. It returns the ids of the
// queries that shared the task.
func (h *hub) resolve(id string, rel ctable.Rel) ([]string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "t")) // not a number: n is 0, never an id
	ot := h.board.Task(n)
	if ot == nil || taskID(n) != id {
		return nil, fmt.Errorf("no open task %q", id)
	}
	h.board.Answer(ot, rel)
	h.settled(ot)
	return queryIDs(ot), nil
}

// settled books a task the board has just settled — by an answer,
// expiry or drain — and wakes the rounds whose last task it was; they
// see it answered, dropped or failed. Callers hold mu.
func (h *hub) settled(ot *crowd.OpenTask) {
	var charged int64
	switch {
	case ot.Answered:
		charged = crowd.UnitMu
		h.cAnswered.Add(1)
	case ot.Why == crowd.Failed:
		h.cFailed.Add(1)
	default:
		h.cExpired.Add(1)
	}
	h.cChargedMu.Add(charged)
	h.cRefundedMu.Add(int64(len(ot.Sharers))*crowd.UnitMu - charged)
	for _, s := range ot.Sharers {
		rw := s.Handle.(*roundWait)
		rw.pending--
		if rw.pending == 0 {
			close(rw.done)
		}
	}
}

// queryIDs lists the ids of the queries sharing a task, in join order.
func queryIDs(ot *crowd.OpenTask) []string {
	ids := make([]string, len(ot.Sharers))
	for i, s := range ot.Sharers {
		ids[i] = s.Handle.(*roundWait).q.id
	}
	return ids
}

// expireOverdue resolves every open task posted at or before cutoff as
// expired, in open order, and returns how many it retired.
func (h *hub) expireOverdue(cutoff time.Time) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.board.Retire(int64(cutoff.Sub(h.start)), crowd.Expired, h.settled)
}

// drain refuses further rounds and fails every open task, refunding all
// reservations; parked rounds wake with ErrDraining and their queries
// degrade through the library's outage path.
func (h *hub) drain() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.draining = true
	h.board.Retire(math.MaxInt64, crowd.Failed, h.settled)
}

// openTasks snapshots the open-task table for GET /v1/tasks, in open
// order.
func (h *hub) openTasks() []TaskInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]TaskInfo, 0, h.board.Len())
	for _, ot := range h.board.Open() {
		out = append(out, TaskInfo{
			ID:       taskID(ot.ID),
			Dataset:  ot.Key.Scope,
			Question: crowd.Task{Expr: ot.Key.Expr}.String(),
			Expr:     exprInfo(ot.Key.Expr),
			Queries:  queryIDs(ot),
			PostedAt: h.start.Add(time.Duration(ot.At)),
		})
	}
	return out
}

// stats snapshots the hub's lifetime tallies and its open-task count.
func (h *hub) stats() (posted, answered, expired, open int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.cPosted.Value()), int(h.cAnswered.Value()), int(h.cExpired.Value()), h.board.Len()
}

// ledgerOf snapshots a query's ledger under the hub lock.
func (h *hub) ledgerOf(q *query) crowd.Ledger {
	h.mu.Lock()
	defer h.mu.Unlock()
	return q.ledger
}
