package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
)

// ObsOverhead — beyond the paper: the observability layer's overhead
// table. It times the crowdsourcing phase (HHS, NBA at the default
// missing rate) under four instrumentation modes: fully disabled (nil
// recorder and registry — the no-op fast path every uninstrumented run
// takes), a recorder draining into the no-op sink, an aggregating sink
// plus live metrics registry, and a full JSONL trace encoded into a
// buffer. The answer set must be identical in every mode — observability
// may cost time but never changes a decision — and the experiment
// re-verifies that on every row.
func ObsOverhead(s Scale) ([]*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Observability overhead (NBA n=%d, HHS): crowdsourcing phase by instrumentation mode", s.NBASize),
		Header: []string{"mode", "phase", "overhead"},
	}
	e := nbaEnv(s, s.NBASize, s.MissingRate)
	dists := e.dists() // preprocessing is offline; force it before timing
	// Built once, untimed: the phase never writes the table.
	ct := ctable.Build(e.incomplete, ctable.BuildOptions{Alpha: s.NBAAlpha, Workers: s.Workers})

	// run measures the phase under one instrumentation mode: mk builds the
	// per-rep recorder/registry pair (nil, nil = disabled) and fin flushes
	// any buffered sink before the clock stops.
	run := func(mk func() (*obs.Recorder, *obs.Registry), fin func() error) (time.Duration, *core.Result) {
		reps := s.Reps
		if reps < 1 {
			reps = 1
		}
		phases := make([]time.Duration, reps)
		var first *core.Result
		for r := 0; r < reps; r++ {
			opt := nbaOpts(s, core.HHS)
			opt.Rng = rand.New(rand.NewSource(s.Seed + int64(r)*101))
			opt.Trace, opt.Metrics = mk()
			platform := crowd.NewSimulated(e.truth, 1.0, nil)
			start := time.Now()
			res, err := core.RunCrowdPhase(e.incomplete, ct, dists, platform, opt)
			if err == nil && fin != nil {
				err = fin()
			}
			phases[r] = time.Since(start)
			if err != nil {
				panic(err)
			}
			if r == 0 {
				first = res
			}
		}
		sort.Slice(phases, func(a, b int) bool { return phases[a] < phases[b] })
		return phases[len(phases)/2], first
	}

	basePhase, baseRes := run(func() (*obs.Recorder, *obs.Registry) { return nil, nil }, nil)

	var buf bytes.Buffer
	var sink *obs.Trace
	modes := []struct {
		name string
		mk   func() (*obs.Recorder, *obs.Registry)
		fin  func() error
	}{
		{"nop sink", func() (*obs.Recorder, *obs.Registry) {
			return obs.NewRecorder(obs.Nop{}), nil
		}, nil},
		{"aggregator + registry", func() (*obs.Recorder, *obs.Registry) {
			reg := obs.NewRegistry()
			return obs.NewRecorder(obs.NewAggregator(reg)), reg
		}, nil},
		{"jsonl trace", func() (*obs.Recorder, *obs.Registry) {
			buf.Reset()
			sink = obs.NewTrace(&buf)
			return obs.NewRecorder(sink), nil
		}, func() error { return sink.Flush() }},
	}

	t.AddRow("disabled", fmtDur(basePhase), "—")
	equal := true
	for _, m := range modes {
		phase, res := run(m.mk, m.fin)
		if !reflect.DeepEqual(res.Answers, baseRes.Answers) {
			equal = false
			t.Notes = append(t.Notes, fmt.Sprintf(
				"EQUIVALENCE VIOLATION: answer set under %q differs from the uninstrumented run", m.name))
		}
		t.AddRow(m.name, fmtDur(phase), overheadCell(basePhase, phase))
	}
	if equal {
		t.Notes = append(t.Notes, "answer sets identical across every instrumentation mode")
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"last traced run emitted %d events (%d bytes of JSONL); quick-scale timings are noisy — overhead within a few percent of zero is measurement jitter",
		bytes.Count(buf.Bytes(), []byte("\n")), buf.Len()))
	return []*Table{t}, nil
}

// overheadCell formats the instrumented-over-baseline slowdown as a
// signed percentage ("+3.1%"); negative values are timing jitter.
func overheadCell(base, d time.Duration) string {
	if base <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(d-base)/float64(base))
}
