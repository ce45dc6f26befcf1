package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/service"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 20, p: 0.50, want: 10, ok: true},
		{n: 19, p: 0.50, ok: false}, // rank 10 leaves 9 beyond it
		{n: 20, p: 0.95, ok: false},
		{n: 199, p: 0.95, ok: false},
		{n: 200, p: 0.95, want: 190, ok: true},
		{n: 1000, p: 0.95, want: 950, ok: true},
	} {
		v, n, err := percentile(seq(tc.n), tc.p)
		if n != tc.n {
			t.Errorf("p%v of %d samples: reported %d samples", tc.p, tc.n, n)
		}
		if (err == nil) != tc.ok {
			t.Errorf("p%v of %d samples: err = %v, want ok = %v", tc.p, tc.n, err, tc.ok)
			continue
		}
		if tc.ok && v != tc.want {
			t.Errorf("p%v of %d samples = %v, want %v", tc.p, tc.n, v, tc.want)
		}
	}
}

func TestCalibrationHelpers(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	got := childArgs([]string{"--workload", "svc-mixed", "--seed", "3", "-repeat=5", "--seconds", "2", "-trace", "1"})
	want := []string{"--workload", "svc-mixed", "--seconds", "2", "-trace", "1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("childArgs = %q, want %q", got, want)
	}
}

func TestTimingsIgnoreAStallInPartOfTheRun(t *testing.T) {
	// Closed loop: 4 specs × 60 cycles of 10 ms queries; one query and
	// one cycle stall 10×.
	const specsN, cycles = 4, 60
	start := time.Unix(1000, 0)
	p := &svcPass{closed: true}
	var ok []outcome
	for c := 0; c < cycles; c++ {
		for s := 0; s < specsN; s++ {
			lat := 10 * time.Millisecond
			if c == 7 && s == 2 {
				lat *= 10
			}
			ok = append(ok, outcome{spec: s, origin: start, finished: start.Add(lat)})
		}
		wall := time.Duration(specsN) * 10 * time.Millisecond
		if c == 7 {
			wall *= 10
		}
		p.cycles = append(p.cycles, cycleStat{queries: specsN, wall: wall, cpu: wall / 2})
	}
	lat := p.latencies(ok)
	if p95, _, err := percentile(lat, 0.95); err != nil || p95 != 0.010 {
		t.Errorf("closed-loop p95 = %v (%v), want the specs' 10 ms", p95, err)
	}
	if got := p.throughput(ok); math.Abs(got-100) > 1e-9 {
		t.Errorf("closed-loop throughput = %v, want the typical cycle's 100/s", got)
	}
	if got := p.cpuPerQuery(ok); got != 5 {
		t.Errorf("closed-loop CPU = %v ms, want the typical cycle's 5 ms", got)
	}

	// Stream: 5 passes over 200 ticks of 1 ms; one tick of one pass and
	// all of another pass stall.
	var passes []*streamPass
	for i := 0; i < 5; i++ {
		p := &streamPass{window: 100, ticks: 200, setup: []float64{0.1}, f1: []float64{1}}
		for tk := 0; tk < p.ticks; tk++ {
			d := time.Millisecond
			if i == 1 || (i == 3 && tk == 5) {
				d *= 10
			}
			p.lat = append(p.lat, d.Seconds())
			p.busy += d
			p.cpu += d
		}
		passes = append(passes, p)
	}
	vals, err := streamEndToEnd(passes)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{"latency_p95_s": 0.001, "throughput_per_s": 1000, "cpu_ms_per_op": 1} {
		if got := vals[name]; math.Abs(got-want) > 1e-9*want {
			t.Errorf("stream %s = %v, want the typical pass's %v", name, got, want)
		}
	}
}

func TestInputsAreSeeded(t *testing.T) {
	w, _ := lookup("svc-mixed")
	a, b := specs(w, 7, "d"), specs(w, 7, "d")
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two spec cycles")
	}
	c := specs(w, 8, "d")
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same spec order")
	}
	bySeed := map[int64]service.QueryRequest{}
	for _, q := range a {
		bySeed[q.Seed] = q
		if (q.Strategy == "HHS") != (q.M == w.m) {
			t.Errorf("spec %+v: HHS needs m=%d, the others none", q, w.m)
		}
	}
	for _, q := range c {
		if bySeed[q.Seed] != q {
			t.Errorf("seed 8's cycle holds %+v, which seed 7's lacks: seeds may only reorder the specs", q)
		}
	}
	if len(a) != w.cycle || len(bySeed) != w.cycle {
		t.Errorf("cycle of %d specs with %d distinct seeds, want %d", len(a), len(bySeed), w.cycle)
	}

	// 250 pairs at 50 queries/s span 10 s.
	const dur = 10 * time.Second
	s1, s2 := arrivals(7, 50, 250), arrivals(7, 50, 250)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed gave two arrival schedules")
	}
	if len(s1) != 250 {
		t.Errorf("%d pairs scheduled, want 250", len(s1))
	}
	for i, off := range s1 {
		if off < 0 || off >= dur || (i > 0 && off < s1[i-1]) {
			t.Fatalf("arrival %d at %v: not ascending within [0, %v)", i, off, dur)
		}
	}
	if reflect.DeepEqual(s1, arrivals(8, 50, 250)) {
		t.Error("different seeds gave the same arrival schedule")
	}
	crowdW, _ := lookup("svc-crowd")
	if n := crowdW.ops(15 * time.Second); n != 768 {
		t.Errorf("svc-crowd runs %d queries in 15 s, want 50/s × 15 s rounded up to whole cycles of pairs = 768", n)
	}
	if n := w.ops(time.Second); n != 216 {
		t.Errorf("svc-mixed runs %d queries in 1 s, want the 200-sample floor rounded up to whole cycles = 216", n)
	}

	sw, _ := lookup("stream-crowd")
	short, long := prepareStream(sw, 10), prepareStream(sw, 20)
	if !reflect.DeepEqual(short.fill, long.fill) || !reflect.DeepEqual(short.arrivals, long.arrivals[:10]) {
		t.Error("the stream's first ticks depend on how many ticks the run makes")
	}

	lo, hi := 20*time.Millisecond, 80*time.Millisecond
	differs := false
	for i := 0; i < 100; i++ {
		q := fmt.Sprintf("question %d", i)
		d := crowdDelay(7, q, lo, hi)
		if d != crowdDelay(7, q, lo, hi) || d < lo || d > hi {
			t.Fatalf("delay of %q: %v, not a seeded value in [%v, %v]", q, d, lo, hi)
		}
		differs = differs || d != crowdDelay(8, q, lo, hi)
	}
	if !differs {
		t.Error("crowd delays do not depend on the seed")
	}
}

func TestSinkDeliversEachTaskOnceWithinConnectionCap(t *testing.T) {
	var mu sync.Mutex
	delivered := map[string]int{}
	active, peak := 0, 0
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := filepath.Base(r.URL.Path)
		mu.Lock()
		delivered[id]++
		mu.Unlock()
		time.Sleep(200 * time.Microsecond) // hold the connection so the cap matters
		if err := json.NewEncoder(w).Encode(service.AnswerReceipt{TaskID: id, Queries: []string{"q1"}}); err != nil {
			t.Error(err)
		}
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch s {
		case http.StateNew:
			active++
			if active > peak {
				peak = active
			}
		case http.StateClosed, http.StateHijacked:
			active--
		}
	}
	ts.Start()
	defer ts.Close()

	truth := dataset.GenNBA(rand.New(rand.NewSource(1)), 50)
	delay := func(q string) time.Duration { return crowdDelay(1, q, 0, 3*time.Millisecond) }
	s := newSink(newAPI(ts.URL), truth, delay, newRecorder())
	s.start()
	const batches, perBatch = 20, 10
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]service.PostedTask, perBatch)
			for i := range tasks {
				n := b*perBatch + i
				expr := ctable.LTConst(ctable.Var{Obj: n % 50, Attr: n % 11}, 3)
				tasks[i] = service.PostedTask{ID: fmt.Sprintf("t%d", n), Dataset: "d", Task: crowd.Task{Expr: expr}}
			}
			s.Notify(tasks)
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		if n == batches*perBatch || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.stopSink()

	opened, errs, first, records := s.result()
	if opened != batches*perBatch || errs != 0 {
		t.Fatalf("opened %d tasks with %d errors (first: %v)", opened, errs, first)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != batches*perBatch {
		t.Fatalf("%d of %d tasks delivered", len(delivered), batches*perBatch)
	}
	for id, n := range delivered {
		if n != 1 {
			t.Errorf("task %s delivered %d times", id, n)
		}
	}
	if peak > maxConns {
		t.Errorf("%d connections open at once, cap %d", peak, maxConns)
	}
	if len(records) != batches*perBatch {
		t.Errorf("%d task records, want %d", len(records), batches*perBatch)
	}
}

// tiny shrinks a workload so its 200-sample floor takes about a second.
func tiny(w workload) workload {
	if w.stream {
		w.window, w.passes = 300, 2
		return w
	}
	w.objects, w.cycle, w.alpha, w.budget, w.latency = 200, 6, 0.01, 6, 2
	if !w.closed {
		w.perSecond = 400
		w.crowdMin, w.crowdMax = time.Millisecond, 3*time.Millisecond
	}
	return w
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs every workload")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{w: tiny(w), seed: 3, dur: time.Second, trace: traced,
				spans: filepath.Join(dir, w.name+".jsonl")}
			res, err := runWorkload(cfg, testLog{t})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s (trace %v): correct %v, %d of %d failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s (trace %v): metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if _, err := os.Stat(cfg.spans); err != nil {
					t.Errorf("%s: spans not written: %v", w.name, err)
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"e2ebench"}) {
		t.Errorf("paths = %q", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(spec.EndToEnd), len(endToEnd))
	}
	setupBound := 0.0
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: declared %s [%s], implemented %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s has a larger bound (%v) than setup_s (%v)", m.Name, m.Bound, setupBound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: declared %s [%s], implemented %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// testLog routes a run's log lines to the test log.
type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Logf("%s", p)
	return len(p), nil
}
