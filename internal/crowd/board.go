package crowd

import (
	"slices"

	"bayescrowd/internal/ctable"
)

// Key identifies a crowd question on a Board: the same expression asked
// in the same scope is the same task, whoever needs it. The service
// scopes its tasks by dataset name; the streaming loop leaves Scope
// empty.
type Key struct {
	Scope string
	Expr  ctable.Expr
}

// Sharer is one request holding a unit on an open task: the ledger the
// unit is booked on and the caller's handle for the request (the
// service's parked round). Handles are compared, so they must be
// comparable: a pointer, or nil.
type Sharer struct {
	Ledger *Ledger
	Handle any
}

// OpenTask is one crowd task on a Board, from its posting until it
// settles. Once Done, Answered tells how it settled: with the answer
// Rel, or lost for the reason Why.
type OpenTask struct {
	// ID numbers the board's tasks in open order, from 1.
	ID  int
	Key Key
	// At is the posting time on the caller's clock.
	At int64
	// Sharers lists the requests sharing the task, in join order.
	Sharers []Sharer

	Done     bool
	Answered bool
	Rel      ctable.Rel
	Why      Loss
}

// Board is the table of open crowd tasks, and it owns their lifecycle:
// post → answered | expired | stale | failed. A task reserves one unit
// of the budget B on every sharer's ledger when posted (§6.1) and then
// settles exactly once: an answer charges the unit price, split across
// the sharers, and a loss refunds every unit. Post, Answer, Lose and
// Retire are therefore the only callers of Ledger.Reserve, Charge and
// Refund; the bayeslint ledger analyzer holds them to it.
//
// Tasks are kept in open order, in a queue whose settled entries are
// removed lazily: from its head when expiry reaches them, and by
// compaction once they outnumber the open tasks. Callers post in time
// order, so expiry retires a prefix of the queue.
//
// A Board is not safe for concurrent use; the service guards its board
// with the hub mutex.
type Board struct {
	entry map[Key]*OpenTask // the dedup entry per key
	queue []*OpenTask       // open order, settled entries removed lazily
	open  int               // tasks posted and not yet settled
	next  int               // the last ID issued
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{entry: map[Key]*OpenTask{}}
}

// Post books one request for key on led: it reserves a full unit and
// either joins the key's open task (a dedup hit: the crowd is asked
// once and the price is split) or opens a new task posted at at. A
// request whose handle already shares the key's task is a re-ask copy:
// it opens its own task, which never takes the key's dedup entry, so
// each copy reaches the crowd and gets its own answer. opened reports
// a new task.
func (b *Board) Post(key Key, at int64, led *Ledger, handle any) (t *OpenTask, opened bool) {
	led.Reserve()
	s := Sharer{Ledger: led, Handle: handle}
	if t = b.entry[key]; t != nil && t.Sharers[len(t.Sharers)-1].Handle != handle {
		led.Shared++
		t.Sharers = append(t.Sharers, s)
		return t, false
	}
	b.next++
	t = &OpenTask{ID: b.next, Key: key, At: at, Sharers: []Sharer{s}}
	if b.entry[key] == nil {
		b.entry[key] = t
	}
	b.queue = append(b.queue, t)
	b.open++
	return t, true
}

// Lookup returns the open task holding key's dedup entry, or nil.
func (b *Board) Lookup(key Key) *OpenTask { return b.entry[key] }

// Task returns the open task numbered id, or nil.
func (b *Board) Task(id int) *OpenTask {
	i, ok := slices.BinarySearchFunc(b.queue, id, func(t *OpenTask, id int) int { return t.ID - id })
	if ok && !b.queue[i].Done {
		return b.queue[i]
	}
	return nil
}

// Len returns the number of open tasks.
func (b *Board) Len() int { return b.open }

// Open returns the open tasks in open order. The slice is the board's
// queue, compacted: it is valid until the board next changes.
func (b *Board) Open() []*OpenTask {
	b.queue = slices.DeleteFunc(b.queue, isDone)
	return b.queue
}

// isDone reports whether t has settled.
func isDone(t *OpenTask) bool { return t.Done }

// SplitMu returns the share of UnitMu charged to the i-th of k sharers
// in join order: the exact integer split, in which the earliest joiners
// absorb the remainder, so the shares sum to UnitMu.
func SplitMu(k, i int) int64 {
	if i < UnitMu%k {
		return UnitMu/int64(k) + 1
	}
	return UnitMu / int64(k)
}

// Answer settles t with the crowd's answer rel: every sharer is charged
// its SplitMu share and refunded the rest of its unit.
func (b *Board) Answer(t *OpenTask, rel ctable.Rel) {
	b.settle(t)
	t.Answered, t.Rel = true, rel
	for i, s := range t.Sharers {
		s.Ledger.Charge(SplitMu(len(t.Sharers), i))
	}
}

// Lose settles t without an answer, refunding every sharer's unit for
// the reason why.
func (b *Board) Lose(t *OpenTask, why Loss) {
	b.settle(t)
	t.Why = why
	for _, s := range t.Sharers {
		s.Ledger.Refund(why)
	}
}

// Retire loses, for the reason why, every open task posted at or before
// cutoff, in open order, and calls settled on each. It returns how many
// tasks it retired.
func (b *Board) Retire(cutoff int64, why Loss, settled func(*OpenTask)) int {
	n := 0
	for len(b.queue) > 0 && (b.queue[0].Done || b.queue[0].At <= cutoff) {
		t := b.queue[0]
		b.queue[0] = nil
		b.queue = b.queue[1:]
		if !t.Done {
			b.Lose(t, why)
			settled(t)
			n++
		}
	}
	return n
}

// settle closes t. The key's dedup entry goes only if it is t's: a
// re-ask copy never holds it. Once settled entries outnumber the open
// tasks, the queue is compacted, so it stays within 2·open+16 entries
// however the tasks settle.
func (b *Board) settle(t *OpenTask) {
	if t.Done {
		panic("crowd: task settled twice")
	}
	t.Done = true
	b.open--
	if b.entry[t.Key] == t {
		delete(b.entry, t.Key)
	}
	if len(b.queue) > 2*b.open+16 {
		b.queue = slices.DeleteFunc(b.queue, isDone)
	}
}
