package service

import (
	"fmt"
	"testing"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
)

// BenchmarkHubCycle runs the hub's task lifecycle at the daemon's
// shape under load: four queries post the same 1,000 tasks in rounds
// of ten, so 1,000 tasks are open and each is shared four ways; ten
// expiry ticks find nothing overdue; half the tasks are answered and
// the rest expire.
func BenchmarkHubCycle(b *testing.B) {
	const nTasks, nQueries, roundSize, ticks = 1000, 4, 10, 10
	ds := &datasetEntry{name: "d"}
	tasks := make([]crowd.Task, nTasks)
	for i := range tasks {
		tasks[i] = crowd.Task{Expr: ctable.Expr{Kind: ctable.VarLTConst, X: ctable.Var{Obj: i}, C: 1}}
	}
	ids := make([]string, nQueries)
	for j := range ids {
		ids[j] = fmt.Sprintf("q%d", j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink := &recordSink{}
		h := newHub(obs.NewRegistry(), sink)
		for _, id := range ids {
			q := &query{id: id, ds: ds}
			for r := 0; r < nTasks; r += roundSize {
				_, fresh, err := h.register(q, tasks[r:r+roundSize])
				if err != nil {
					b.Fatal(err)
				}
				h.notify(fresh)
			}
		}
		past := time.Now().Add(-time.Hour)
		for t := 0; t < ticks; t++ {
			if n := h.expireOverdue(past); n != 0 {
				b.Fatalf("expired %d tasks posted after the cutoff", n)
			}
		}
		for _, p := range sink.posted[:nTasks/2] {
			if _, err := h.resolve(p.ID, ctable.LT); err != nil {
				b.Fatal(err)
			}
		}
		if n := h.expireOverdue(time.Now()); n != nTasks/2 {
			b.Fatalf("expired %d tasks, want %d", n, nTasks/2)
		}
	}
}
