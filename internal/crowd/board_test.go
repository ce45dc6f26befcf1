package crowd

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/ctable"
)

// boardKeys is a small key space, so random posts collide and join.
func boardKeys() []Key {
	var keys []Key
	for _, scope := range []string{"", "d"} {
		for obj := 0; obj < 3; obj++ {
			keys = append(keys, Key{Scope: scope, Expr: ctable.Expr{Kind: ctable.VarLTConst, X: ctable.Var{Obj: obj}, C: 2}})
		}
	}
	return keys
}

// TestBoardProperties drives seeded random sequences of post, join,
// re-ask copy, answer, stale, expire and drain over several ledgers and
// checks after every operation that each ledger is conserved, that the
// charges add up to one unit per answered task, that the queue stays
// within 2·open+16 entries, and that expiry retires exactly the tasks
// posted at or before its cutoff, in open order.
func TestBoardProperties(t *testing.T) {
	keys := boardKeys()
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBoard()
		ledgers := make([]Ledger, 4)
		var clock int64
		answered := 0

		openTasks := func() []*OpenTask { return append([]*OpenTask(nil), b.Open()...) }
		pick := func() *OpenTask {
			open := openTasks()
			if len(open) == 0 {
				return nil
			}
			return open[rng.Intn(len(open))]
		}
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(100); {
			case r < 30: // post under a fresh handle: opens, or joins
				key := keys[rng.Intn(len(keys))]
				prev := b.Lookup(key)
				clock += int64(rng.Intn(3))
				ot, opened := b.Post(key, clock, &ledgers[rng.Intn(len(ledgers))], new(int))
				if opened != (prev == nil) || (!opened && ot != prev) || b.Lookup(key) != ot {
					t.Fatalf("seed %d op %d: post of %v: opened %v, prev %p, got %p", seed, op, key, opened, prev, ot)
				}
			case r < 40: // a re-ask copy: the last sharer posts again
				ot := pick()
				if ot == nil || b.Lookup(ot.Key) != ot {
					continue
				}
				last := ot.Sharers[len(ot.Sharers)-1]
				cp, opened := b.Post(ot.Key, clock, last.Ledger, last.Handle)
				if !opened || cp == ot || b.Lookup(ot.Key) != ot {
					t.Fatalf("seed %d op %d: re-ask copy joined or took the dedup entry", seed, op)
				}
			case r < 65: // answer
				if ot := pick(); ot != nil {
					if b.Task(ot.ID) != ot {
						t.Fatalf("seed %d op %d: Task(%d) does not find the open task", seed, op, ot.ID)
					}
					b.Answer(ot, ctable.LT)
					answered++
					if b.Task(ot.ID) != nil {
						t.Fatalf("seed %d op %d: Task(%d) finds a settled task", seed, op, ot.ID)
					}
				}
			case r < 75: // stale: an answer arrived for a departed object
				if ot := pick(); ot != nil {
					// The arrival tally is the caller's (the stream's Tick).
					for _, s := range ot.Sharers {
						s.Ledger.Arrived++
					}
					b.Lose(ot, Stale)
				}
			case r < 98: // expire
				cutoff := clock - int64(rng.Intn(4))
				var want []*OpenTask
				for _, ot := range openTasks() {
					if ot.At <= cutoff {
						want = append(want, ot)
					}
				}
				var got []*OpenTask
				n := b.Retire(cutoff, Expired, func(ot *OpenTask) { got = append(got, ot) })
				if n != len(want) || len(got) != len(want) {
					t.Fatalf("seed %d op %d: expiry at %d retired %d (%d reported), want %d", seed, op, cutoff, n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] || !got[i].Done || got[i].Why != Expired {
						t.Fatalf("seed %d op %d: expiry retired task %d at position %d, want %d", seed, op, got[i].ID, i, want[i].ID)
					}
				}
			default: // drain
				open := len(openTasks())
				if n := b.Retire(math.MaxInt64, Failed, func(*OpenTask) {}); n != open || b.Len() != 0 {
					t.Fatalf("seed %d op %d: drain retired %d of %d open tasks, %d left", seed, op, n, open, b.Len())
				}
			}

			var charged int64
			inFlight := 0
			for i, l := range ledgers {
				if !l.Conserved() {
					t.Fatalf("seed %d op %d: ledger %d not conserved: %+v", seed, op, i, l)
				}
				charged += l.ChargedMu
				inFlight += l.InFlight
			}
			if charged != UnitMu*int64(answered) {
				t.Fatalf("seed %d op %d: charged %d mu for %d answered tasks", seed, op, charged, answered)
			}
			sharers := 0
			for _, ot := range openTasks() {
				sharers += len(ot.Sharers)
			}
			if inFlight != sharers || b.Len() != len(openTasks()) {
				t.Fatalf("seed %d op %d: %d requests in flight, %d sharers of %d open tasks (Len %d)", seed, op, inFlight, sharers, len(openTasks()), b.Len())
			}
			if len(b.queue) > 2*b.Len()+16 {
				t.Fatalf("seed %d op %d: queue holds %d entries for %d open tasks", seed, op, len(b.queue), b.Len())
			}
		}
	}
}

// TestBoardQueueBounded pins the lazy queue against the dead-entry leak:
// tasks answered out of the queue's reach, with no expiry ever popping
// its head, must not pile up.
func TestBoardQueueBounded(t *testing.T) {
	b := NewBoard()
	var led Ledger
	keys := boardKeys()
	// One task stays open throughout, so the head is never settled.
	b.Post(keys[0], 0, &led, nil)
	for i := 0; i < 10000; i++ {
		ot, _ := b.Post(keys[1], int64(i), &led, nil)
		b.Answer(ot, ctable.GT)
	}
	if got, limit := len(b.queue), 2*b.Len()+16; got > limit {
		t.Fatalf("after 10000 post+answer cycles the queue holds %d entries for %d open tasks, want at most %d", got, b.Len(), limit)
	}
	if !led.Conserved() || led.InFlight != 1 || led.ChargedMu != 10000*UnitMu {
		t.Fatalf("ledger %+v, want 1 in flight and 10000 units charged", led)
	}
}
