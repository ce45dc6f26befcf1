package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
)

// makeData builds a seeded synthetic truth dataset and its incomplete
// counterpart (30% of cells hidden).
func makeData(seed int64, objects, attrs int) (incomplete, truth *dataset.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]dataset.Attribute, attrs)
	for j := range specs {
		specs[j] = dataset.Attribute{Name: fmt.Sprintf("a%d", j+1), Levels: 5}
	}
	truth = dataset.New(specs)
	for i := 0; i < objects; i++ {
		cells := make([]dataset.Cell, attrs)
		for j := range cells {
			cells[j] = dataset.Known(rng.Intn(5))
		}
		truth.MustAppend(dataset.Object{ID: fmt.Sprintf("o%d", i+1), Cells: cells})
	}
	incomplete = truth.InjectMissing(rng, 0.3)
	return incomplete, truth
}

// datasetReq renders a dataset as the wire registration request.
func datasetReq(name string, d *dataset.Dataset) DatasetRequest {
	req := DatasetRequest{Name: name, MarginalsOnly: true}
	for _, a := range d.Attrs {
		req.Attrs = append(req.Attrs, AttrSpec{Name: a.Name, Levels: a.Levels})
	}
	for _, o := range d.Objects {
		row := make([]*int, len(o.Cells))
		for j, c := range o.Cells {
			if !c.Missing {
				v := c.Value
				row[j] = &v
			}
		}
		req.Rows = append(req.Rows, row)
	}
	return req
}

// postJSON posts v and decodes the response into out (when non-nil),
// failing the test on transport errors and unexpected status.
func postJSON(t *testing.T, url string, v any, wantStatus int, out any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatalf("close body: %v", cerr)
	}
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s response: %v: %s", url, err, data)
		}
	}
}

// getJSON fetches url into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatalf("close body: %v", cerr)
	}
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("decode %s: %v: %s", url, err, data)
	}
}

// waitDone polls a query until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) QueryStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st QueryStatus
		getJSON(t, base+"/v1/queries/"+id, &st)
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// exprOf converts the wire expression back to the ctable value.
func exprOf(t *testing.T, info ExprInfo) ctable.Expr {
	t.Helper()
	x := ctable.Var{Obj: info.Obj, Attr: info.Attr}
	switch info.Kind {
	case "x<c":
		return ctable.LTConst(x, info.C)
	case "x>c":
		return ctable.GTConst(x, info.C)
	case "x>y":
		return ctable.GTVar(x, ctable.Var{Obj: info.Obj2, Attr: info.Attr2})
	default:
		t.Fatalf("unknown expr kind %q", info.Kind)
		return ctable.Expr{}
	}
}

// refRun executes the library reference for a query request: same
// preprocessing, same options, a fault-free synchronous platform.
func refRun(t *testing.T, incomplete, truth *dataset.Dataset, req QueryRequest, workers int) *core.Result {
	t.Helper()
	base, err := core.Preprocess(incomplete, core.Options{MarginalsOnly: true, Workers: workers})
	if err != nil {
		t.Fatalf("reference preprocess: %v", err)
	}
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		Alpha:    req.Alpha,
		Budget:   req.Budget,
		Latency:  req.Latency,
		Strategy: strategy,
		M:        req.M,
		Workers:  workers,
	}
	if req.Seed != 0 {
		opt.Rng = rand.New(rand.NewSource(req.Seed))
	}
	res, err := core.RunWithDists(incomplete, base, crowd.NewSimulated(truth, 1.0, nil), opt)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res
}

// TestServiceEquivalence is the acceptance gate for the event-loop
// architecture: queries served concurrently through the daemon's HTTP
// surface — answers arriving as callbacks from the loopback driver, in
// whatever order the scheduler interleaves the queries — return results
// bit-identical to synchronous library runs, at every worker count and
// concurrency level tried.
func TestServiceEquivalence(t *testing.T) {
	incomplete, truth := makeData(7, 24, 4)
	reqs := []QueryRequest{
		{Dataset: "d", Budget: 30, Latency: 5, Strategy: "UBS", Seed: 11},
		{Dataset: "d", Budget: 30, Latency: 5, Strategy: "FBS", Seed: 12},
		{Dataset: "d", Budget: 30, Latency: 5, Strategy: "HHS", M: 5, Seed: 13},
	}

	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			loop := NewLoopback(crowd.NewSimulated(truth, 1.0, nil), "")
			srv := New(Config{Workers: workers, MaxConcurrent: 2, Sink: loop})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			loop.SetEndpoint(ts.URL)
			loop.Start()
			defer loop.Stop()

			postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)

			ids := make([]string, len(reqs))
			for i, req := range reqs {
				req.Workers = workers
				var st QueryStatus
				postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &st)
				ids[i] = st.ID
			}
			for i, req := range reqs {
				st := waitDone(t, ts.URL, ids[i])
				if st.State != StateDone {
					t.Fatalf("query %s failed: %s", st.ID, st.Error)
				}
				want := refRun(t, incomplete, truth, req, workers)
				got := st.Result
				wantAnswers := append([]int{}, want.Answers...)
				if !reflect.DeepEqual(got.Answers, wantAnswers) {
					t.Errorf("%s: Answers = %v, want %v", req.Strategy, got.Answers, wantAnswers)
				}
				if got.TasksPosted != want.TasksPosted || got.Rounds != want.Rounds || got.BudgetSpent != want.BudgetSpent {
					t.Errorf("%s: cost (%d tasks, %d rounds, %d spent), want (%d, %d, %d)",
						req.Strategy, got.TasksPosted, got.Rounds, got.BudgetSpent,
						want.TasksPosted, want.Rounds, want.BudgetSpent)
				}
				if got.Degraded {
					t.Errorf("%s: unexpectedly degraded: %s", req.Strategy, got.DegradedReason)
				}
				if !st.Ledger.Conserved() {
					t.Errorf("%s: ledger not conserved: %+v", req.Strategy, st.Ledger)
				}
				if st.Ledger.Charged != want.TasksPosted {
					t.Errorf("%s: ledger answered %d, want %d", req.Strategy, st.Ledger.Charged, want.TasksPosted)
				}
			}
		})
	}
}

// metricKeys snapshots the names /metrics currently serves.
func metricKeys(t *testing.T, srv *Server) map[string]bool {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.Registry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("decode metrics: %v: %s", err, buf.Bytes())
	}
	keys := map[string]bool{}
	for section, entries := range snap {
		for name := range entries {
			keys[section+"/"+name] = true
		}
	}
	return keys
}

// TestMetricsBoundedInQueries pins that /metrics names a fixed set of
// series however many queries the daemon has served: a query's money
// lives on its own ledger (GET /v1/queries/{id}), never in a per-query
// registry entry.
func TestMetricsBoundedInQueries(t *testing.T) {
	incomplete, truth := makeData(7, 24, 4)
	loop := NewLoopback(crowd.NewSimulated(truth, 1.0, nil), "")
	srv := New(Config{Workers: 1, MaxConcurrent: 1, Sink: loop})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loop.SetEndpoint(ts.URL)
	loop.Start()
	defer loop.Stop()

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)
	serve := func(seed int64) {
		var st QueryStatus
		req := QueryRequest{Dataset: "d", Budget: 20, Latency: 4, Strategy: "UBS", Seed: seed, Workers: 1}
		postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &st)
		if st = waitDone(t, ts.URL, st.ID); st.State != StateDone || st.Ledger.Charged == 0 {
			t.Fatalf("query %s: state %s, %d answered: %s", st.ID, st.State, st.Ledger.Charged, st.Error)
		}
	}

	serve(1)
	after1 := metricKeys(t, srv)
	for seed := int64(2); seed <= 4; seed++ {
		serve(seed)
	}
	after4 := metricKeys(t, srv)
	for k := range after4 {
		if !after1[k] {
			t.Errorf("metric %s appeared after more queries were served", k)
		}
	}
	for k := range after1 {
		if !after4[k] {
			t.Errorf("metric %s disappeared after more queries were served", k)
		}
	}
}

// TestDedupSharesTasksAndSplitsCharge drives two identical queries in
// lockstep with manual answers: their rounds select the same tasks, the
// hub opens each task once, and the unit price splits exactly between
// the sharers with both ledgers conserving to the last mu.
func TestDedupSharesTasksAndSplitsCharge(t *testing.T) {
	incomplete, truth := makeData(21, 20, 4)
	srv := New(Config{Workers: 1, MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)

	req := QueryRequest{Dataset: "d", Budget: 20, Latency: 4, Strategy: "UBS", Seed: 5, Workers: 1}
	var a, b QueryStatus
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &a)
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &b)

	deadline := time.Now().Add(60 * time.Second)
	for {
		var sa, sb QueryStatus
		getJSON(t, ts.URL+"/v1/queries/"+a.ID, &sa)
		getJSON(t, ts.URL+"/v1/queries/"+b.ID, &sb)
		if sa.State == StateDone && sb.State == StateDone {
			break
		}
		if sa.State == StateFailed || sb.State == StateFailed {
			t.Fatalf("query failed: %q / %q", sa.Error, sb.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("queries stuck: %s/%s", sa.State, sb.State)
		}
		var tasks []TaskInfo
		getJSON(t, ts.URL+"/v1/tasks", &tasks)
		// Answer only when both identical queries have joined every open
		// task — they run in lockstep, so waiting keeps them in step.
		ready := len(tasks) > 0
		for _, task := range tasks {
			if len(task.Queries) < 2 {
				ready = false
			}
		}
		if !ready {
			time.Sleep(2 * time.Millisecond)
			continue
		}
		for _, task := range tasks {
			rel := ctable.TrueRel(truth, exprOf(t, task.Expr))
			var receipt AnswerReceipt
			postJSON(t, ts.URL+"/v1/answers/"+task.ID, AnswerRequest{Rel: rel.String()}, http.StatusOK, &receipt)
			if len(receipt.Queries) != 2 {
				t.Fatalf("task %s delivered to %v, want both queries", task.ID, receipt.Queries)
			}
		}
	}

	sa := waitDone(t, ts.URL, a.ID)
	sb := waitDone(t, ts.URL, b.ID)
	var health HealthInfo
	getJSON(t, ts.URL+"/v1/healthz", &health)

	for _, st := range []QueryStatus{sa, sb} {
		if !st.Ledger.Conserved() {
			t.Errorf("%s: ledger not conserved: %+v", st.ID, st.Ledger)
		}
		if st.Ledger.InFlight != 0 {
			t.Errorf("%s: %d requests still in flight after completion", st.ID, st.Ledger.InFlight)
		}
	}
	// Dedup must have shared every task: the second query's requests all
	// joined the first query's (or vice versa per round), so the crowd
	// saw strictly fewer tasks than the queries requested.
	totalRequested := sa.Ledger.Posted + sb.Ledger.Posted
	if health.TasksPosted >= totalRequested {
		t.Errorf("posted %d unique tasks for %d requests — dedup never shared", health.TasksPosted, totalRequested)
	}
	if sa.Ledger.Shared == 0 && sb.Ledger.Shared == 0 {
		t.Error("no request was marked shared")
	}
	// Money conservation across the whole service: every answered unique
	// task was paid for exactly once, split across its sharers.
	totalCharged := sa.Ledger.ChargedMu + sb.Ledger.ChargedMu
	if want := int64(crowd.UnitMu) * int64(health.TasksAnswered); totalCharged != want {
		t.Errorf("total charged %d mu, want %d (= %d answered tasks)", totalCharged, want, health.TasksAnswered)
	}
	// Identical queries must return identical results.
	if !reflect.DeepEqual(sa.Result.Answers, sb.Result.Answers) {
		t.Errorf("identical queries diverged: %v vs %v", sa.Result.Answers, sb.Result.Answers)
	}
}

// TestDrainDegradesAndRefunds parks a query on the crowd, drains the
// server, and checks the drain contract: the query completes degraded,
// every reservation is refunded, and new work is refused with 503.
func TestDrainDegradesAndRefunds(t *testing.T) {
	incomplete, _ := makeData(33, 20, 4)
	srv := New(Config{Workers: 1, MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)
	req := QueryRequest{Dataset: "d", Budget: 10, Latency: 2, Seed: 3, Workers: 1}
	var st QueryStatus
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &st)

	// Wait until the query parks on the crowd with tasks open.
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur QueryStatus
		getJSON(t, ts.URL+"/v1/queries/"+st.ID, &cur)
		var tasks []TaskInfo
		getJSON(t, ts.URL+"/v1/tasks", &tasks)
		if cur.State == StateWaiting && len(tasks) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never parked (state %s)", cur.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("drained query state %s (%s), want done (degraded)", final.State, final.Error)
	}
	if !final.Result.Degraded {
		t.Error("drained query not marked degraded")
	}
	led := final.Ledger
	if !led.Conserved() {
		t.Errorf("ledger not conserved after drain: %+v", led)
	}
	if led.Failed == 0 || led.InFlight != 0 {
		t.Errorf("drain settled nothing: %+v", led)
	}
	if led.ChargedMu != 0 || led.RefundedMu != int64(crowd.UnitMu)*int64(led.Posted) {
		t.Errorf("reservations not fully refunded: %+v", led)
	}

	// Admissions are refused while draining.
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusServiceUnavailable, nil)
	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d2", incomplete), http.StatusServiceUnavailable, nil)
	var health HealthInfo
	getJSON(t, ts.URL+"/v1/healthz", &health)
	if health.Status != "draining" {
		t.Errorf("health status %q, want draining", health.Status)
	}
}

// TestExpiryRefundsAndRequeues lets every posted task hit the deadline:
// the query must still terminate (latency bounds the rounds), with all
// requests expired and fully refunded.
func TestExpiryRefundsAndRequeues(t *testing.T) {
	incomplete, _ := makeData(44, 20, 4)
	srv := New(Config{Workers: 1, MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)
	req := QueryRequest{Dataset: "d", Budget: 8, Latency: 2, Seed: 9, Workers: 1}
	var st QueryStatus
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &st)

	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur QueryStatus
		getJSON(t, ts.URL+"/v1/queries/"+st.ID, &cur)
		if cur.State == StateDone || cur.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query stuck in %s", cur.State)
		}
		// Expire whatever is open; the round wakes with zero answers and
		// the library treats the tasks as dropped.
		srv.ExpireOverdue(time.Now())
		time.Sleep(2 * time.Millisecond)
	}

	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("state %s (%s), want done", final.State, final.Error)
	}
	led := final.Ledger
	if !led.Conserved() {
		t.Errorf("ledger not conserved: %+v", led)
	}
	if led.Expired == 0 || led.Charged != 0 {
		t.Errorf("expected pure-expiry ledger, got %+v", led)
	}
	if led.ChargedMu != 0 {
		t.Errorf("charged %d mu with no answers delivered", led.ChargedMu)
	}
}

// TestTraceEndpoint runs a traced query to completion and downloads its
// JSONL trace.
func TestTraceEndpoint(t *testing.T) {
	incomplete, truth := makeData(55, 16, 3)
	loop := NewLoopback(crowd.NewSimulated(truth, 1.0, nil), "")
	srv := New(Config{Workers: 1, MaxConcurrent: 1, Sink: loop})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loop.SetEndpoint(ts.URL)
	loop.Start()
	defer loop.Stop()

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)
	req := QueryRequest{Dataset: "d", Budget: 10, Latency: 2, Seed: 2, Workers: 1, Trace: true}
	var st QueryStatus
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &st)
	final := waitDone(t, ts.URL, st.ID)
	if final.State != StateDone {
		t.Fatalf("query failed: %s", final.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/queries/" + st.ID + "/trace")
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); cerr != nil {
		t.Fatalf("close body: %v", cerr)
	}
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"kind"`)) {
		t.Fatalf("trace has no events: %q", body)
	}
}

// TestFinishedQueryRetainsNoCTable checks that a finished query keeps
// only the part of its result its status reports: no c-table is
// retained, and GET /v1/queries/{id} serves the same body it serves when
// the query holds the library's whole result.
func TestFinishedQueryRetainsNoCTable(t *testing.T) {
	incomplete, truth := makeData(57, 24, 4)
	loop := NewLoopback(crowd.NewSimulated(truth, 1.0, nil), "")
	srv := New(Config{Workers: 1, MaxConcurrent: 1, Sink: loop})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loop.SetEndpoint(ts.URL)
	loop.Start()
	defer loop.Stop()

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)
	req := QueryRequest{Dataset: "d", Budget: 20, Latency: 4, Strategy: "UBS", Seed: 5, Workers: 1}
	var st QueryStatus
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &st)
	if final := waitDone(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("query failed: %s", final.Error)
	}
	kept := srv.result(t, st.ID)
	if kept.CTable != nil {
		t.Fatal("a finished query retains its c-table")
	}
	full := refRun(t, incomplete, truth, req, 1)
	if full.CTable == nil || len(full.Probs) == 0 {
		t.Fatalf("the reference run has no c-table or no undecided objects: %d probabilities", len(full.Probs))
	}

	body := func() []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/queries/" + st.ID)
		if err != nil {
			t.Fatalf("GET query: %v", err)
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatalf("close body: %v", cerr)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET query: status %d, %v: %s", resp.StatusCode, err, data)
		}
		return data
	}
	got := body()
	srv.mu.Lock()
	q := srv.queries[st.ID]
	srv.mu.Unlock()
	q.mu.Lock()
	q.result = full
	q.mu.Unlock()
	if want := body(); !bytes.Equal(got, want) {
		t.Fatalf("status body differs from the whole result's\n got:  %s\n want: %s", got, want)
	}
}

// TestFinishedQueryDropsRunOptions checks that a finished query keeps
// neither its request's rand source nor its OnRound closure: nothing
// reads the run options after the run, and the query table keeps every
// finished query.
func TestFinishedQueryDropsRunOptions(t *testing.T) {
	incomplete, truth := makeData(57, 24, 4)
	loop := NewLoopback(crowd.NewSimulated(truth, 1.0, nil), "")
	srv := New(Config{Workers: 1, MaxConcurrent: 1, Sink: loop})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loop.SetEndpoint(ts.URL)
	loop.Start()
	defer loop.Stop()

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)
	req := QueryRequest{Dataset: "d", Budget: 20, Latency: 4, Strategy: "UBS", Seed: 5, Workers: 1}
	var st QueryStatus
	postJSON(t, ts.URL+"/v1/queries", req, http.StatusAccepted, &st)
	if final := waitDone(t, ts.URL, st.ID); final.State != StateDone {
		t.Fatalf("query failed: %s", final.Error)
	}
	srv.mu.Lock()
	q := srv.queries[st.ID]
	srv.mu.Unlock()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.opt.Rng != nil {
		t.Error("a finished query keeps its rand source")
	}
	if q.opt.OnRound != nil {
		t.Error("a finished query keeps its OnRound closure")
	}
}

// TestHTTPErrors walks the error envelope: bad bodies, unknown
// resources, duplicate registration.
func TestHTTPErrors(t *testing.T) {
	incomplete, _ := makeData(66, 10, 3)
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	checkError := func(method, url string, body any, wantStatus int) {
		t.Helper()
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				t.Fatalf("encode: %v", err)
			}
		}
		req, err := http.NewRequest(method, url, &buf)
		if err != nil {
			t.Fatalf("new request: %v", err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatalf("close body: %v", cerr)
		}
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, wantStatus, data)
		}
		var envelope ErrorBody
		if err := json.Unmarshal(data, &envelope); err != nil || envelope.Error.Message == "" {
			t.Fatalf("%s %s: not the error envelope: %s", method, url, data)
		}
	}

	postJSON(t, ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusCreated, nil)

	checkError("POST", ts.URL+"/v1/datasets", datasetReq("d", incomplete), http.StatusConflict)
	checkError("POST", ts.URL+"/v1/datasets", DatasetRequest{Name: "x"}, http.StatusBadRequest)
	checkError("POST", ts.URL+"/v1/queries", QueryRequest{Dataset: "nope", Budget: 5, Latency: 1}, http.StatusBadRequest)
	checkError("POST", ts.URL+"/v1/queries", QueryRequest{Dataset: "d", Budget: 0, Latency: 1}, http.StatusBadRequest)
	checkError("POST", ts.URL+"/v1/queries", QueryRequest{Dataset: "d", Budget: 5, Latency: 1, Strategy: "XXX"}, http.StatusBadRequest)
	checkError("GET", ts.URL+"/v1/queries/q999", nil, http.StatusNotFound)
	checkError("GET", ts.URL+"/v1/queries/q999/trace", nil, http.StatusNotFound)
	checkError("POST", ts.URL+"/v1/answers/t999", AnswerRequest{Rel: "<"}, http.StatusNotFound)
}

// TestHTTPBodyLimit pins the request-body cap: a body past maxBodyBytes
// is refused with 413 and the error envelope before it is buffered,
// while the registration of a 10,000-row NBA dataset with 10% of its
// cells missing — the largest body the end-to-end benchmark sends — is
// far inside the cap and accepted.
func TestHTTPBodyLimit(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	big = append(big, `"}`...)
	for _, path := range []string{"/v1/datasets", "/v1/queries", "/v1/answers/t1"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		data, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); cerr != nil {
			t.Fatalf("close body: %v", cerr)
		}
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413: %s", path, len(big), resp.StatusCode, data)
		}
		var envelope ErrorBody
		if err := json.Unmarshal(data, &envelope); err != nil || envelope.Error.Message == "" {
			t.Fatalf("POST %s: not the error envelope: %s", path, data)
		}
	}

	truth := dataset.GenNBA(rand.New(rand.NewSource(1)), 10000)
	req := datasetReq("nba", truth.InjectMissing(rand.New(rand.NewSource(2)), 0.1))
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > maxBodyBytes/10 {
		t.Fatalf("10,000-row registration is %d bytes, within 10× of the %d-byte cap", len(body), maxBodyBytes)
	}
	var info DatasetInfo
	postJSON(t, ts.URL+"/v1/datasets", req, http.StatusCreated, &info)
	if info.Objects != 10000 {
		t.Fatalf("registered %d objects, want 10000", info.Objects)
	}
	t.Logf("10,000-row registration body: %d bytes", len(body))
}
