package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary, recorded from the
// benchmark's side of the call. Start and End are milliseconds since the
// traced pass began; Parent names the span that caused this one as
// "<name>:<request id>"; Req is the request id (a query or task id, or
// a tick number).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Parent string  `json:"parent,omitempty"`
	Req    string  `json:"req"`
}

// recorder keeps the traced pass's spans in memory until the run ends.
// A nil recorder records nothing, so the untraced pass pays one nil
// check per boundary.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
}

// newRecorder starts a recorder whose clock starts now.
func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records one span.
func (r *recorder) add(name, req, parent string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{Name: name, Start: ms(start.Sub(r.origin)), End: ms(end.Sub(r.origin)), Parent: parent, Req: req}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// write stores the spans as JSONL, ordered by start time.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// p50 is the median duration in milliseconds of the spans named name,
// or 0 when the pass recorded none (the layer is not on this workload's
// path).
func (r *recorder) p50(name string) (float64, error) {
	r.mu.Lock()
	var d []float64
	for _, s := range r.spans {
		if s.Name == name {
			d = append(d, s.End-s.Start)
		}
	}
	r.mu.Unlock()
	if len(d) == 0 {
		return 0, nil
	}
	v, _, err := percentile(d, 0.5)
	if err != nil {
		return 0, fmt.Errorf("%s spans: %w", name, err)
	}
	return v, nil
}
