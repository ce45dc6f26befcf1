package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequestBodies sends arbitrary bodies through Handler() to the
// three POST routes and checks that each response carries a status
// docs/SERVICE.md documents for its route, and every error response the
// JSON error envelope. Dataset bodies go to a fresh server, so nothing
// one input registers carries to the next. Query and answer bodies go
// to a drained server, which admits no query, so no runner goroutine
// parks on the crowd and memory stays bounded per input.
func FuzzRequestBodies(f *testing.F) {
	// The worked session of docs/SERVICE.md, and bodies past its bounds.
	f.Add(uint8(0), []byte(`{
  "name": "movies",
  "attrs": [{"name": "story", "levels": 5}, {"name": "acting", "levels": 5}],
  "rows": [[4, 3], [null, 4], [2, null]]
}`))
	f.Add(uint8(1), []byte(`{
  "dataset": "movies", "budget": 10, "latency": 3,
  "strategy": "HHS", "m": 5, "seed": 7, "trace": true
}`))
	f.Add(uint8(2), []byte(`{"rel": ">"}`))
	f.Add(uint8(0), []byte(`{"name": "x", "attrs": [{"name": "a", "levels": 1000000}], "rows": [[1]]}`))
	f.Add(uint8(0), []byte(`{"name": "x", "attrs": [{"name": "a", "levels": 3}], "rows": [[7], [null]], "marginalsOnly": true}`))
	f.Add(uint8(1), []byte(`{"dataset": "movies", "budget": 1, "latency": 1, "workers": 1000000}`))
	f.Add(uint8(1), []byte(`{"dataset": "movies", "budget": 1, "latency": 1, "bogus": 1}`))
	f.Add(uint8(2), []byte(`{"rel": "~"}`))
	f.Add(uint8(2), []byte(`[`))

	drained := New(Config{Workers: 1})
	if err := drained.Drain(context.Background()); err != nil {
		f.Fatal(err)
	}
	routes := []struct {
		path   string
		server func() *Server
		codes  []int
	}{
		{"/v1/datasets", func() *Server { return New(Config{Workers: 1}) }, []int{201, 400, 409, 413, 503}},
		{"/v1/queries", func() *Server { return drained }, []int{202, 400, 413, 503}},
		{"/v1/answers/t1", func() *Server { return drained }, []int{200, 400, 404, 413}},
	}
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		r.server().Handler().ServeHTTP(rec, httptest.NewRequest("POST", r.path, bytes.NewReader(body)))
		documented := false
		for _, c := range r.codes {
			documented = documented || rec.Code == c
		}
		if !documented {
			t.Fatalf("POST %s: undocumented status %d: %s", r.path, rec.Code, rec.Body)
		}
		if rec.Code < 400 {
			return
		}
		var envelope ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil ||
			envelope.Error.Code != http.StatusText(rec.Code) || envelope.Error.Message == "" {
			t.Fatalf("POST %s: status %d without the error envelope: %s", r.path, rec.Code, rec.Body)
		}
	})
}
