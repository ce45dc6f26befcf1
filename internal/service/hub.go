package service

import (
	"fmt"
	"sort"
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

// taskKey identifies a crowd question across queries: the same missing
// cell asked about over the same dataset is the same task, whoever
// needs it.
type taskKey struct {
	dataset string
	expr    ctable.Expr
}

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

// roundWait is one parked crowd round: the tasks a query posted, the
// hub task each one joined or opened, the relations that have arrived
// for them, and the latch its goroutine blocks on until every task is
// resolved.
type roundWait struct {
	q     *query
	tasks []crowd.Task
	ids   []string // hub task id per posted task
	// rels holds the answered relations by hub task id; all writes
	// happen under the hub mutex before done closes, so the post-wait
	// read is ordered.
	rels    map[string]ctable.Rel
	pending int
	failed  bool // drain resolved part of the round
	done    chan struct{}
}

// collect assembles the round's answers in posted-task order — the
// order a synchronous platform returns them — and reports ErrDraining
// when drain resolved any of the round's tasks.
func (rw *roundWait) collect() ([]crowd.Answer, error) {
	var answers []crowd.Answer
	for i, t := range rw.tasks {
		if rel, ok := rw.rels[rw.ids[i]]; ok {
			answers = append(answers, crowd.Answer{Task: t, Rel: rel})
		}
	}
	if rw.failed {
		return answers, ErrDraining
	}
	return answers, nil
}

// openTask is one outstanding crowd task and the rounds sharing it, in
// join order (the earliest joiners absorb the integer remainder of the
// price split).
type openTask struct {
	id       string
	seq      int // monotone open order; iteration sorts on it
	key      taskKey
	question string
	postedAt time.Time
	waiters  []*roundWait
}

// hub is the service's crowd event loop state: the cross-query dedup
// table of open tasks, every query's ledger, and the resolution paths
// (answer callback, deadline expiry, drain) that wake parked rounds.
// All fields are guarded by mu; ledger mutation happens exclusively in
// the register/resolve/expireOverdue/drain call trees, which is the
// contract the bayeslint ledger analyzer pins down.
type hub struct {
	sink TaskSink

	mu       sync.Mutex
	open     map[taskKey]*openTask // guarded by mu
	byID     map[string]*openTask  // guarded by mu
	nextTask int                   // guarded by mu
	draining bool                  // guarded by mu

	// cPosted, cAnswered and cExpired double as the lifetime tallies
	// behind /v1/healthz; cPosted counts unique tasks ever opened.
	cPosted, cDeduped, cAnswered, cExpired, cFailed *obs.Counter
	cChargedMu, cRefundedMu                         *obs.Counter
}

// newHub returns an empty hub writing its counters to reg.
func newHub(reg *obs.Registry, sink TaskSink) *hub {
	return &hub{
		sink: sink,
		open: map[taskKey]*openTask{},
		byID: map[string]*openTask{},

		cPosted:     reg.Counter("service.tasks.posted"),
		cDeduped:    reg.Counter("service.tasks.deduped"),
		cAnswered:   reg.Counter("service.tasks.answered"),
		cExpired:    reg.Counter("service.tasks.expired"),
		cFailed:     reg.Counter("service.tasks.failed"),
		cChargedMu:  reg.Counter("service.mu.charged"),
		cRefundedMu: reg.Counter("service.mu.refunded"),
	}
}

// register books one crowd round into the hub: every task reserves a
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
		tasks:   tasks,
		ids:     make([]string, len(tasks)),
		rels:    make(map[string]ctable.Rel, len(tasks)),
		pending: len(tasks),
		done:    make(chan struct{}),
	}
	var fresh []PostedTask
	for i, t := range tasks {
		key := taskKey{dataset: q.ds.name, expr: t.Expr}
		q.ledger.Reserve()
		ot := h.open[key]
		// This round already joined or opened the key's task: a copy.
		copied := ot != nil && ot.waiters[len(ot.waiters)-1] == rw
		if ot != nil && !copied {
			q.ledger.Shared++
			h.cDeduped.Add(1)
			ot.waiters = append(ot.waiters, rw)
			rw.ids[i] = ot.id
			continue
		}
		h.nextTask++
		ot = &openTask{
			id:       fmt.Sprintf("t%d", h.nextTask),
			seq:      h.nextTask,
			key:      key,
			question: t.String(),
			postedAt: time.Now(),
			waiters:  []*roundWait{rw},
		}
		if !copied {
			h.open[key] = ot
		}
		h.byID[ot.id] = ot
		rw.ids[i] = ot.id
		h.cPosted.Add(1)
		fresh = append(fresh, PostedTask{ID: ot.id, Dataset: key.dataset, Task: t})
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
// splits exactly across the sharing requests in join order (earliest
// joiners absorb the remainder), every sharer's reservation beyond its
// share is refunded, and rounds whose last task this was are woken. It
// returns the ids of the queries that shared the task.
func (h *hub) resolve(taskID string, rel ctable.Rel) ([]string, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ot := h.byID[taskID]
	if ot == nil {
		return nil, fmt.Errorf("no open task %q", taskID)
	}
	h.close(ot)
	h.cAnswered.Add(1)

	k := len(ot.waiters)
	share := int64(crowd.UnitMu / k)
	extra := crowd.UnitMu % k
	ids := make([]string, 0, k)
	for i, rw := range ot.waiters {
		c := share
		if i < extra {
			c++
		}
		rw.q.ledger.Charge(c)
		h.cChargedMu.Add(c)
		h.cRefundedMu.Add(crowd.UnitMu - c)
		rw.rels[ot.id] = rel
		rw.pending--
		if rw.pending == 0 {
			close(rw.done)
		}
		ids = append(ids, rw.q.id)
	}
	return ids, nil
}

// settleLost resolves one task without an answer — expiry or drain —
// refunding every sharer's full reservation. The sharing rounds see the
// task as dropped (expiry) or failed (drain).
func (h *hub) settleLost(ot *openTask, why crowd.Loss) {
	for _, rw := range ot.waiters {
		rw.q.ledger.Refund(why)
		h.cRefundedMu.Add(crowd.UnitMu)
		if why == crowd.Failed {
			rw.failed = true
		}
		rw.pending--
		if rw.pending == 0 {
			close(rw.done)
		}
	}
}

// expireOverdue resolves every open task posted at or before cutoff as
// expired and returns how many it retired. Tasks are processed in open
// order so the ledger movements are reproducible given the same open
// set.
func (h *hub) expireOverdue(cutoff time.Time) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	overdue := h.bySeqOrder(func(ot *openTask) bool { return !ot.postedAt.After(cutoff) })
	for _, ot := range overdue {
		h.close(ot)
		h.cExpired.Add(1)
		h.settleLost(ot, crowd.Expired)
	}
	return len(overdue)
}

// close removes a settled task from the open tables. The dedup entry
// for its key goes only if it is this task's: a re-ask copy never holds
// it. Callers hold mu.
func (h *hub) close(ot *openTask) {
	delete(h.byID, ot.id)
	if h.open[ot.key] == ot {
		delete(h.open, ot.key)
	}
}

// bySeqOrder gathers the open tasks matching keep, ordered by the
// monotone open sequence (a total order, so results never depend on map
// iteration). Callers hold mu.
func (h *hub) bySeqOrder(keep func(*openTask) bool) []*openTask {
	bySeq := make(map[int]*openTask, len(h.byID))
	seqs := make([]int, 0, len(h.byID))
	for _, ot := range h.byID {
		if keep == nil || keep(ot) {
			bySeq[ot.seq] = ot
			seqs = append(seqs, ot.seq)
		}
	}
	sort.Ints(seqs)
	out := make([]*openTask, len(seqs))
	for i, seq := range seqs {
		out[i] = bySeq[seq]
	}
	return out
}

// drain refuses further rounds and fails every open task, refunding all
// reservations; parked rounds wake with ErrDraining and their queries
// degrade through the library's outage path.
func (h *hub) drain() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.draining = true
	for _, ot := range h.bySeqOrder(nil) {
		h.close(ot)
		h.cFailed.Add(1)
		h.settleLost(ot, crowd.Failed)
	}
}

// openTasks snapshots the open-task table for GET /v1/tasks, in open
// order.
func (h *hub) openTasks() []TaskInfo {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]TaskInfo, 0, len(h.byID))
	for _, ot := range h.bySeqOrder(nil) {
		queries := make([]string, len(ot.waiters))
		for i, rw := range ot.waiters {
			queries[i] = rw.q.id
		}
		out = append(out, TaskInfo{
			ID:       ot.id,
			Dataset:  ot.key.dataset,
			Question: ot.question,
			Expr:     exprInfo(ot.key.expr),
			Queries:  queries,
			PostedAt: ot.postedAt,
		})
	}
	return out
}

// stats snapshots the hub's lifetime tallies and its open-task count.
func (h *hub) stats() (posted, answered, expired, open int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.cPosted.Value()), int(h.cAnswered.Value()), int(h.cExpired.Value()), len(h.byID)
}

// ledgerOf snapshots a query's ledger under the hub lock.
func (h *hub) ledgerOf(q *query) crowd.Ledger {
	h.mu.Lock()
	defer h.mu.Unlock()
	return q.ledger
}
