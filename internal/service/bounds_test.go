package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
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
