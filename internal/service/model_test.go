package service

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/prob"
)

// TestModelSharedAcrossQueries checks the per-dataset model slot:
// concurrent FBS/UBS/HHS queries on one (dataset, α) pair share one
// model build, each returns the library's result and trace bit for bit,
// none of them writes the shared model, and another α gets a fresh,
// correct model in the one slot.
func TestModelSharedAcrossQueries(t *testing.T) {
	incomplete, truth := makeData(31, 80, 4)
	base, err := core.Preprocess(incomplete, core.Options{MarginalsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := func(alpha float64, seed int64) []QueryRequest {
		return []QueryRequest{
			{Dataset: "d", Alpha: alpha, Budget: 12, Latency: 3, Strategy: "FBS", Seed: seed},
			{Dataset: "d", Alpha: alpha, Budget: 12, Latency: 3, Strategy: "UBS", Seed: seed + 1},
			{Dataset: "d", Alpha: alpha, Budget: 12, Latency: 3, Strategy: "HHS", M: 4, Seed: seed + 2},
		}
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			loop := NewLoopback(crowd.NewSimulated(truth, 1.0, nil), "")
			srv := New(Config{Workers: workers, MaxConcurrent: 2, Sink: loop})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			loop.SetEndpoint(ts.URL)
			loop.Start()
			defer loop.Stop()
			postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)

			// run submits the requests together, waits for all of them,
			// and checks each against its library run.
			run := func(reqs []QueryRequest) {
				t.Helper()
				ids := make([]string, len(reqs))
				for i := range reqs {
					reqs[i].Workers, reqs[i].Trace = workers, true
					var st QueryStatus
					postJSON(t, ts.URL+"/v1/queries", reqs[i], http.StatusAccepted, &st)
					ids[i] = st.ID
				}
				for i, req := range reqs {
					if st := waitDone(t, ts.URL, ids[i]); st.State != StateDone {
						t.Fatalf("query %s failed: %s", st.ID, st.Error)
					}
					want, wantTrace := tracedRefRun(t, incomplete, truth, base, req)
					got := srv.result(t, ids[i])
					if got.TasksPosted == 0 || len(got.Probs) == 0 {
						t.Errorf("α=%v %s: posted %d tasks, %d objects left undecided; want both positive",
							req.Alpha, req.Strategy, got.TasksPosted, len(got.Probs))
					}
					if !reflect.DeepEqual(withoutTimings(got), withoutTimings(want)) {
						t.Errorf("α=%v %s: daemon result differs from the library's\n got:  %+v\n want: %+v",
							req.Alpha, req.Strategy, got.Answers, want.Answers)
					}
					if gotTrace := fetchTrace(t, ts.URL, ids[i]); !bytes.Equal(gotTrace, wantTrace) {
						t.Errorf("α=%v %s: daemon trace differs from the library's\n got:\n%s\n want:\n%s",
							req.Alpha, req.Strategy, gotTrace, wantTrace)
					}
				}
			}
			builds := srv.Registry().Counter("service.model.builds")
			reuses := srv.Registry().Counter("service.model.reuses")

			// Three concurrent first queries: one build, two reuses.
			run(batch(0.3, 11))
			if builds.Value() != 1 || reuses.Value() != 2 {
				t.Fatalf("first batch: %d builds, %d reuses; want 1 and 2", builds.Value(), reuses.Value())
			}
			shared := srv.sharedModel(t)
			before := modelHash(shared)
			if fresh := core.BuildModel(incomplete, base, core.Options{Alpha: 0.3, Workers: 1}); modelHash(fresh) != before {
				t.Fatal("after the first batch the shared model no longer matches a fresh build")
			}
			run(batch(0.3, 21))
			if builds.Value() != 1 || reuses.Value() != 5 {
				t.Fatalf("second batch: %d builds, %d reuses; want 1 and 5", builds.Value(), reuses.Value())
			}
			if srv.sharedModel(t) != shared || modelHash(shared) != before {
				t.Fatal("the queries replaced or wrote the shared model")
			}

			// Another α replaces the slot with a fresh, correct model.
			run(batch(0.15, 31)[:1])
			if builds.Value() != 2 {
				t.Fatalf("a new α made %d builds in all, want 2", builds.Value())
			}
			other := srv.sharedModel(t)
			if other == shared {
				t.Fatal("a new α reused the old model")
			}
			if modelHash(other) != modelHash(core.BuildModel(incomplete, base, core.Options{Alpha: 0.15, Workers: 1})) {
				t.Fatal("the new α's model differs from a fresh build")
			}
			if n := srv.Registry().Histogram("model.build.duration").Count(); n != 2 {
				t.Fatalf("model.build.duration observed %d builds, want 2", n)
			}
		})
	}
}

// tracedRefRun is the library run a daemon query must reproduce, with
// its JSONL trace.
func tracedRefRun(t *testing.T, incomplete, truth *dataset.Dataset, base prob.Dists, req QueryRequest) (*core.Result, []byte) {
	t.Helper()
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewTrace(&buf)
	res, err := core.RunWithDists(incomplete, base, crowd.NewSimulated(truth, 1.0, nil), core.Options{
		Alpha: req.Alpha, Budget: req.Budget, Latency: req.Latency, Strategy: strategy, M: req.M,
		Workers: req.Workers, Rng: rand.New(rand.NewSource(req.Seed)), Trace: obs.NewRecorder(sink),
	})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("reference trace: %v", err)
	}
	return res, buf.Bytes()
}

// withoutTimings returns a copy of r without its wall times and cache
// counters: those are observability, not results, and a daemon query on
// a shared model leaves the model's initial fan-out out of both.
func withoutTimings(r *core.Result) core.Result {
	c := *r
	c.Cache, c.SelectTime, c.ProbTime = prob.CacheStats{}, 0, 0
	return c
}

// result returns a finished query's library result.
func (s *Server) result(t *testing.T, id string) *core.Result {
	t.Helper()
	s.mu.Lock()
	q := s.queries[id]
	s.mu.Unlock()
	_, res, err := q.snapshot()
	if err != nil || res == nil {
		t.Fatalf("query %s has no result: %v", id, err)
	}
	return res
}

// sharedModel returns the model in dataset d's slot.
func (s *Server) sharedModel(t *testing.T) *core.Model {
	t.Helper()
	s.mu.Lock()
	e := s.datasets["d"]
	s.mu.Unlock()
	e.mu.Lock()
	slot := e.slot
	e.mu.Unlock()
	if slot == nil {
		t.Fatal("dataset d has no model")
	}
	<-slot.ready
	return slot.m
}

// modelHash fingerprints everything a run reads from a model: every
// condition, the undecided list and the initial Pr(φ) bits.
func modelHash(m *core.Model) uint64 {
	h := fnv.New64a()
	for _, c := range m.CT.Conds {
		fmt.Fprintf(h, "%s;", c)
	}
	for i, o := range m.Undecided {
		fmt.Fprintf(h, "%d=%x;", o, math.Float64bits(m.Probs[i]))
	}
	return h.Sum64()
}

// fetchTrace downloads a finished query's JSONL trace.
func fetchTrace(t *testing.T, base, id string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/queries/" + id + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatalf("close body: %v", cerr)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d, %v: %s", resp.StatusCode, err, body)
	}
	return body
}
