package service

import (
	"fmt"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
)

// recordSink collects every task the hub opens.
type recordSink struct{ posted []PostedTask }

func (s *recordSink) Notify(tasks []PostedTask) { s.posted = append(s.posted, tasks...) }

// TestReaskCopiesAreSeparateTasks pins how the hub treats re-ask
// copies: core re-asks a conflicting task by posting several copies in
// one round, and each copy must reach the crowd as its own task and come
// back with its own answer, in posted order — not join the first copy
// and return its answer several times. Cross-query dedup still joins
// the first copy's task, and settling a later copy leaves that entry in
// place.
func TestReaskCopiesAreSeparateTasks(t *testing.T) {
	sink := &recordSink{}
	h := newHub(obs.NewRegistry(), sink)
	ds := &datasetEntry{name: "d"}
	task := crowd.Task{Expr: ctable.Expr{Kind: ctable.VarLTConst, X: ctable.Var{Obj: 1, Attr: 0}, C: 3}}
	q1 := &query{id: "q1", ds: ds}
	rw, fresh, err := h.register(q1, []crowd.Task{task, task, task})
	if err != nil {
		t.Fatal(err)
	}
	h.notify(fresh)
	if len(sink.posted) != 3 {
		t.Fatalf("sink got %d tasks for 3 copies, want 3", len(sink.posted))
	}
	ids := map[string]bool{}
	for _, p := range sink.posted {
		ids[p.ID] = true
	}
	if len(ids) != 3 {
		t.Fatalf("copies share task ids: %+v", sink.posted)
	}
	if led := h.ledgerOf(q1); led.Shared != 0 || led.Posted != 3 {
		t.Fatalf("ledger after posting 3 copies: %+v, want 3 requests, none shared", led)
	}

	// Settle the second copy first: the dedup entry belongs to the
	// first, so another query asking the same question still joins it.
	rels := []ctable.Rel{ctable.GT, ctable.LT, ctable.EQ}
	if _, err := h.resolve(sink.posted[1].ID, rels[1]); err != nil {
		t.Fatal(err)
	}
	q2 := &query{id: "q2", ds: ds}
	rw2, fresh2, err := h.register(q2, []crowd.Task{task})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh2) != 0 || h.ledgerOf(q2).Shared != 1 {
		t.Fatalf("second query opened %d tasks, ledger %+v; want it to join the first copy", len(fresh2), h.ledgerOf(q2))
	}
	for _, i := range []int{2, 0} {
		if _, err := h.resolve(sink.posted[i].ID, rels[i]); err != nil {
			t.Fatal(err)
		}
	}
	<-rw.done
	<-rw2.done

	answers, err := rw.collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 3 {
		t.Fatalf("got %d answers, want 3", len(answers))
	}
	for i, a := range answers {
		if a.Rel != rels[i] {
			t.Errorf("answer %d = %v, want %v (each copy's own answer, in posted order)", i, a.Rel, rels[i])
		}
	}
	led1, led2 := h.ledgerOf(q1), h.ledgerOf(q2)
	if !led1.Conserved() || !led2.Conserved() || led1.InFlight != 0 || led2.InFlight != 0 {
		t.Fatalf("ledgers not settled: %+v, %+v", led1, led2)
	}
	if got := led1.ChargedMu + led2.ChargedMu; got != 3*crowd.UnitMu {
		t.Errorf("charged %d mu for 3 crowd tasks, want %d", got, 3*crowd.UnitMu)
	}
}

// TestHubSplitRemainder checks the exact split through the hub: k
// queries join one task, and once it is answered each query's charge
// is the board's split share for its join position — the earliest
// joiners absorb the remainder — summing to exactly UnitMu.
func TestHubSplitRemainder(t *testing.T) {
	task := crowd.Task{Expr: ctable.Expr{Kind: ctable.VarLTConst, X: ctable.Var{Obj: 1, Attr: 0}, C: 3}}
	for k := 1; k <= 7; k++ {
		sink := &recordSink{}
		h := newHub(obs.NewRegistry(), sink)
		ds := &datasetEntry{name: "d"}
		qs := make([]*query, k)
		for i := range qs {
			qs[i] = &query{id: fmt.Sprintf("q%d", i), ds: ds}
			_, fresh, err := h.register(qs[i], []crowd.Task{task})
			if err != nil {
				t.Fatal(err)
			}
			h.notify(fresh)
		}
		if len(sink.posted) != 1 {
			t.Fatalf("k=%d: %d tasks opened, want 1 shared task", k, len(sink.posted))
		}
		if _, err := h.resolve(sink.posted[0].ID, ctable.LT); err != nil {
			t.Fatal(err)
		}
		var sum int64
		for i, q := range qs {
			got := h.ledgerOf(q).ChargedMu
			want := int64(crowd.UnitMu / k)
			if i < crowd.UnitMu%k {
				want++
			}
			if got != want || got != crowd.SplitMu(k, i) {
				t.Errorf("k=%d: joiner %d charged %d mu, want %d", k, i, got, want)
			}
			sum += got
		}
		if sum != crowd.UnitMu {
			t.Errorf("k=%d: shares sum to %d, want %d", k, sum, crowd.UnitMu)
		}
	}
}
