package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/service"
)

// serviceDatasetReq renders a dataset as the service registration
// request (marginals-only preprocessing, matching the soak baseline).
func serviceDatasetReq(name string, d *dataset.Dataset) service.DatasetRequest {
	req := service.DatasetRequest{Name: name, MarginalsOnly: true}
	for _, a := range d.Attrs {
		req.Attrs = append(req.Attrs, service.AttrSpec{Name: a.Name, Levels: a.Levels})
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

// TestServiceSoak is the nightly multi-query service soak: a daemon
// with a hostile loopback crowd (answers dropped, platform calls
// failing, spam relations injected) serves several concurrent queries
// across all three strategies, including an identical pair that
// exercises cross-query task dedup under faults. It asserts the
// service's end-to-end guarantees: every query terminates, every
// per-query ledger conserves to the last mu with nothing left in
// flight, the service-wide money books balance (every answered unique
// task charged exactly once across its sharers), and F1 holds a floor
// against the fault-free synchronous baseline. The nightly job runs it
// under -race, so any locking mistake in the hub, scheduler or handlers
// fails the job.
func TestServiceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("service soak skipped in -short mode")
	}
	const (
		nObjects   = 400
		dropProb   = 0.15
		outageProb = 0.05
		spamProb   = 0.05
		f1Floor    = 0.30 // absolute slack vs the fault-free baseline
	)
	s := Quick()
	e := nbaEnv(s, nObjects, s.MissingRate)

	// Fault-free synchronous baselines, one per strategy, using the same
	// marginals-only preprocessing the service registration will run.
	base, err := core.Preprocess(e.incomplete, core.Options{MarginalsOnly: true})
	if err != nil {
		t.Fatalf("baseline preprocess: %v", err)
	}
	baselineF1 := map[string]float64{}
	for _, strat := range strategies {
		opt := nbaOpts(s, strat)
		opt.Rng = rand.New(rand.NewSource(s.Seed + 31))
		res, err := core.RunWithDists(e.incomplete, base, crowd.NewSimulated(e.truth, 1.0, nil), opt)
		if err != nil {
			t.Fatalf("baseline %v: %v", strat, err)
		}
		baselineF1[strat.String()] = metrics.F1(res.Answers, e.sky)
	}

	// The daemon under test: Unreliable loopback, short task deadline so
	// dropped answers expire instead of hanging rounds.
	faultRng := rand.New(rand.NewSource(s.Seed + 61))
	platform := crowd.NewUnreliable(crowd.NewSimulated(e.truth, 1.0, nil),
		dropProb, outageProb, spamProb, faultRng)
	loop := service.NewLoopback(platform, "")
	srv := service.New(service.Config{
		Workers:       2,
		MaxConcurrent: 3,
		TaskDeadline:  300 * time.Millisecond,
		Sink:          loop,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	loop.SetEndpoint(ts.URL)
	loop.Start()
	defer loop.Stop()
	srv.Start()

	post := func(url string, v any, wantStatus int, out any) {
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
				t.Fatalf("decode: %v: %s", err, data)
			}
		}
	}
	get := func(url string, out any) {
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
			t.Fatalf("decode: %v: %s", err, data)
		}
	}

	post(ts.URL+"/v1/datasets", serviceDatasetReq("nba", e.incomplete), http.StatusCreated, nil)

	// Six queries: each strategy once with its own seed, plus an
	// identical UBS pair sharing a seed — their rounds select the same
	// tasks, so the dedup and budget-split paths run under faults.
	reqs := []service.QueryRequest{
		{Dataset: "nba", Alpha: s.NBAAlpha, Budget: s.NBABudget, Latency: s.NBALatency, Strategy: "FBS", Seed: 101, MaxRetries: 3},
		{Dataset: "nba", Alpha: s.NBAAlpha, Budget: s.NBABudget, Latency: s.NBALatency, Strategy: "UBS", Seed: 102, MaxRetries: 3},
		{Dataset: "nba", Alpha: s.NBAAlpha, Budget: s.NBABudget, Latency: s.NBALatency, Strategy: "HHS", M: s.NBAM, Seed: 103, MaxRetries: 3},
		{Dataset: "nba", Alpha: s.NBAAlpha, Budget: s.NBABudget, Latency: s.NBALatency, Strategy: "UBS", Seed: 77, MaxRetries: 3},
		{Dataset: "nba", Alpha: s.NBAAlpha, Budget: s.NBABudget, Latency: s.NBALatency, Strategy: "UBS", Seed: 77, MaxRetries: 3},
		{Dataset: "nba", Alpha: s.NBAAlpha, Budget: s.NBABudget, Latency: s.NBALatency, Strategy: "FBS", Seed: 104, MaxRetries: 3},
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		var st service.QueryStatus
		post(ts.URL+"/v1/queries", req, http.StatusAccepted, &st)
		ids[i] = st.ID
	}

	// Wait for every query; the latency bound plus the task deadline
	// bounds each one's lifetime.
	finals := make([]service.QueryStatus, len(ids))
	deadline := time.Now().Add(5 * time.Minute)
	for i, id := range ids {
		for {
			var st service.QueryStatus
			get(ts.URL+"/v1/queries/"+id, &st)
			if st.State == service.StateDone || st.State == service.StateFailed {
				finals[i] = st
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %s stuck in %s", id, st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	var totalCharged int64
	var totalShared int
	for i, st := range finals {
		if st.State != service.StateDone {
			t.Errorf("query %s failed: %s", st.ID, st.Error)
			continue
		}
		if !st.Ledger.Conserved() {
			t.Errorf("query %s: ledger not conserved: %+v", st.ID, st.Ledger)
		}
		if st.Ledger.InFlight != 0 {
			t.Errorf("query %s: %d requests in flight after completion", st.ID, st.Ledger.InFlight)
		}
		totalCharged += st.Ledger.ChargedMu
		totalShared += st.Ledger.Shared
		f1 := metrics.F1(st.Result.Answers, e.sky)
		floor := baselineF1[reqs[i].Strategy] - f1Floor
		if f1 < floor {
			t.Errorf("query %s (%s): F1 %.3f below floor %.3f (baseline %.3f)",
				st.ID, reqs[i].Strategy, f1, floor, baselineF1[reqs[i].Strategy])
		}
		t.Logf("%s %s seed=%d: f1=%.3f rounds=%d degraded=%v ledger=%+v",
			st.ID, reqs[i].Strategy, reqs[i].Seed, f1, st.Result.Rounds, st.Result.Degraded, st.Ledger)
	}
	if totalShared == 0 {
		t.Error("the identical query pair never shared a task — dedup path not exercised")
	}

	var health service.HealthInfo
	get(ts.URL+"/v1/healthz", &health)
	if want := int64(crowd.UnitMu) * int64(health.TasksAnswered); totalCharged != want {
		t.Errorf("service books off: total charged %d mu, want %d (= %d answered tasks × %d mu)",
			totalCharged, want, health.TasksAnswered, crowd.UnitMu)
	}
	if health.TasksExpired == 0 {
		t.Log("note: no task expired — fault schedule did not exercise the expiry path this run")
	}

	// Clean shutdown: drain with nothing left running must return fast.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after completion: %v", err)
	}
	t.Logf("hub: posted=%d answered=%d expired=%d shared-requests=%d charged=%dmu",
		health.TasksPosted, health.TasksAnswered, health.TasksExpired, totalShared, totalCharged)
}
