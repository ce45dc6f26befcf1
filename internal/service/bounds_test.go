package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bayescrowd/internal/dataset"
)

// TestQueryWorkersCapped checks that a query's worker count is capped at
// the daemon's: a request may lower it, and anything above it, or <= 0,
// resolves to the daemon's. The dataset is tiny, so even an uncapped
// count could fan out no wider than its handful of conditions.
func TestQueryWorkersCapped(t *testing.T) {
	incomplete, _ := makeData(71, 6, 2)
	srv := New(Config{Workers: 2})
	if _, err := srv.RegisterDataset(datasetReq("tiny", incomplete)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ req, want int }{{0, 2}, {-3, 2}, {1, 1}, {2, 2}, {64, 2}} {
		st, err := srv.SubmitQuery(QueryRequest{Dataset: "tiny", Budget: 2, Latency: 1, Workers: c.req})
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.lookupQuery(st.ID).opt.Workers; got != c.want {
			t.Fatalf("workers %d resolved to %d, want %d", c.req, got, c.want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDatasetLevelsCapped checks that registration refuses an attribute
// with more than MaxLevels levels with 400 and the error envelope, and
// accepts one with exactly MaxLevels.
func TestDatasetLevelsCapped(t *testing.T) {
	h := New(Config{Workers: 1}).Handler()
	for _, c := range []struct {
		levels, want int
	}{{MaxLevels + 1, http.StatusBadRequest}, {MaxLevels, http.StatusCreated}} {
		v := 1
		body, err := json.Marshal(DatasetRequest{
			Name:          "d" + http.StatusText(c.want),
			Attrs:         []AttrSpec{{Name: "a", Levels: c.levels}},
			Rows:          [][]*int{{&v}, {nil}},
			MarginalsOnly: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/datasets", bytes.NewReader(body)))
		if rec.Code != c.want {
			t.Fatalf("%d levels: status %d, want %d: %s", c.levels, rec.Code, c.want, rec.Body)
		}
		if c.want != http.StatusBadRequest {
			continue
		}
		var envelope ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Message == "" {
			t.Fatalf("%d levels: not the error envelope: %s", c.levels, rec.Body)
		}
	}
}

// postStatus posts v to path through h and checks the status, and the
// error envelope when the status is 400.
func postStatus(t *testing.T, h http.Handler, path string, v any, want int) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	if rec.Code != want {
		t.Fatalf("POST %s: status %d, want %d: %s", path, rec.Code, want, rec.Body)
	}
	if want != http.StatusBadRequest {
		return
	}
	var envelope ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Message == "" {
		t.Fatalf("POST %s: not the error envelope: %s", path, rec.Body)
	}
}

// TestDatasetAttrsCapped checks that registration refuses more than
// MaxAttrs attributes with 400 and the error envelope, and accepts
// exactly MaxAttrs.
func TestDatasetAttrsCapped(t *testing.T) {
	h := New(Config{Workers: 1}).Handler()
	for _, c := range []struct{ attrs, want int }{{MaxAttrs + 1, http.StatusBadRequest}, {MaxAttrs, http.StatusCreated}} {
		req := DatasetRequest{Name: "d" + http.StatusText(c.want), MarginalsOnly: true}
		known, missing := make([]*int, c.attrs), make([]*int, c.attrs)
		for j := 0; j < c.attrs; j++ {
			v := j % 2
			req.Attrs = append(req.Attrs, AttrSpec{Name: fmt.Sprintf("a%d", j), Levels: 2})
			known[j] = &v
		}
		req.Rows = [][]*int{known, missing}
		postStatus(t, h, "/v1/datasets", req, c.want)
	}
}

// TestQueryRetriesAndReasksCapped checks that a query with maxRetries
// above MaxRetries, or reaskConflicts above MaxReaskConflicts, is
// refused with 400 and the error envelope, and that one at each cap is
// admitted. No crowd answers, so the admitted queries park until Drain.
func TestQueryRetriesAndReasksCapped(t *testing.T) {
	incomplete, _ := makeData(73, 6, 2)
	srv := New(Config{Workers: 1})
	if _, err := srv.RegisterDataset(datasetReq("tiny", incomplete)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, c := range []struct {
		retries, reasks, want int
	}{
		{MaxRetries + 1, 0, http.StatusBadRequest},
		{0, MaxReaskConflicts + 1, http.StatusBadRequest},
		{MaxRetries, 0, http.StatusAccepted},
		{0, MaxReaskConflicts, http.StatusAccepted},
	} {
		req := QueryRequest{Dataset: "tiny", Budget: 2, Latency: 1, MaxRetries: c.retries, ReaskConflicts: c.reasks}
		postStatus(t, h, "/v1/queries", req, c.want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestPreprocessObserved checks that every registration that reaches
// preprocessing books its wall time once on layer.preprocess.duration,
// whether it learns a network or takes the marginals, and that one
// refused before preprocessing books nothing.
func TestPreprocessObserved(t *testing.T) {
	srv := New(Config{Workers: 2})
	rng := rand.New(rand.NewSource(5))
	learned := datasetReq("learned", dataset.GenNBA(rng, 200).InjectMissing(rng, 0.1))
	learned.MarginalsOnly = false
	incomplete, _ := makeData(79, 6, 2)
	for _, req := range []DatasetRequest{learned, datasetReq("marginals", incomplete), {Name: "empty"}} {
		if _, err := srv.RegisterDataset(req); (err != nil) != (req.Name == "empty") {
			t.Fatalf("registering %q: %v", req.Name, err)
		}
	}
	if got := srv.Registry().Histogram("layer.preprocess.duration").Count(); got != 2 {
		t.Fatalf("layer.preprocess.duration counted %d registrations, want 2", got)
	}
}

// TestLearnObserved checks that network learning books its wall time on
// layer.learn.duration: once for a registration that learns a network,
// never for one that takes the marginals.
func TestLearnObserved(t *testing.T) {
	srv := New(Config{Workers: 2})
	rng := rand.New(rand.NewSource(5))
	learned := datasetReq("learned", dataset.GenNBA(rng, 200).InjectMissing(rng, 0.1))
	learned.MarginalsOnly = false
	incomplete, _ := makeData(79, 6, 2)
	h := srv.Registry().Histogram("layer.learn.duration")
	for _, c := range []struct {
		req  DatasetRequest
		want int64
	}{{datasetReq("marginals", incomplete), 0}, {learned, 1}} {
		if _, err := srv.RegisterDataset(c.req); err != nil {
			t.Fatalf("registering %q: %v", c.req.Name, err)
		}
		if got := h.Count(); got != c.want {
			t.Fatalf("after registering %q, layer.learn.duration counted %d, want %d", c.req.Name, got, c.want)
		}
	}
}
