package bench

import (
	"fmt"
	"math/rand"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/skyline"
	"bayescrowd/internal/stream"
)

// streamCrowdDeadline is the task deadline (in ticks) the latency sweep
// and the soak run against: generous enough that a mildly lagging crowd
// still lands its answers, short enough that a badly lagging one loses
// them — the degradation the experiment is there to chart.
const streamCrowdDeadline = 4

// StreamCrowdExperiment charts the asynchronous crowd loop against crowd
// lag: the same NBA-shaped stream runs once machine-only and once per
// crowd latency (a constant answer delay of 0, 1, 5 and 20 ticks), with
// a fixed per-task deadline. A prompt crowd converts nearly its whole
// budget into absorbed answers; past the deadline the loop keeps serving
// every tick but the answers arrive late or stale, utilisation collapses
// toward zero, and the final window's F1 degrades back to the
// machine-only floor — never below it. The utilisation metric is
// informational (no CI gate): it describes the injected crowd, not the
// engine.
func StreamCrowdExperiment(s Scale) ([]*Table, error) {
	truth, fill, ticks := streamSchedule(s)
	budget := 2 * s.StreamTicks

	type row struct {
		label   string
		elapsed time.Duration
		tot     crowd.Ledger
		f1      float64
	}
	run := func(label string, latency int, budget int) (row, error) {
		cfg := stream.CrowdConfig{
			Config: stream.Config{
				Attrs:   truth.Attrs,
				Window:  stream.Window{Count: s.StreamWindow},
				Workers: s.Workers,
			},
			Budget:       budget,
			TasksPerTick: 2,
			TaskDeadline: streamCrowdDeadline,
			Strategy:     core.FBS,
		}
		if budget > 0 {
			platform := crowd.NewUnreliable(crowd.NewSimulated(truth, 1, nil), 0, 0, 0, nil)
			platform.MinDelay, platform.MaxDelay = latency, latency
			cfg.Platform = platform
			cfg.Rng = rand.New(rand.NewSource(s.Seed + 57))
		}
		ce, err := stream.NewCrowd(cfg)
		if err != nil {
			return row{}, err
		}
		start := time.Now()
		ce.Tick(0, fill)
		var last stream.CrowdTickResult
		for t, batch := range ticks {
			last = ce.Tick(int64(t+1), batch)
		}
		elapsed := time.Since(start)
		return row{
			label:   label,
			elapsed: elapsed,
			tot:     ce.Totals(),
			f1:      windowOracleF1(truth, ce.Snapshot(), last.Answers),
		}, nil
	}

	rows := make([]row, 0, 5)
	r, err := run("machine-only", 0, 0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, r)
	for _, lag := range []int{0, 1, 5, 20} {
		r, err := run(fmt.Sprintf("lag %d", lag), lag, budget)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}

	sustained := s.StreamArrivals * s.StreamTicks
	t := &Table{
		Title: fmt.Sprintf(
			"Stream+crowd: graceful degradation under crowd lag, window=%d, %d ticks, budget=%d, deadline=%d ticks",
			s.StreamWindow, s.StreamTicks, budget, streamCrowdDeadline),
		Header: []string{"crowd", "posted", "absorbed", "lost (stale/late/exp)", "utilisation", "F1 vs oracle", "obj/s"},
	}
	var metric []float64
	for _, r := range rows {
		util := "-"
		if r.tot.Posted > 0 {
			u := float64(r.tot.Absorbed) / float64(r.tot.Posted)
			util = fmt.Sprintf("%.2f", u)
			metric = append(metric, u)
		}
		t.AddRow(r.label,
			fmt.Sprintf("%d", r.tot.Posted),
			fmt.Sprintf("%d", r.tot.Absorbed),
			fmt.Sprintf("%d/%d/%d", r.tot.Stale, r.tot.Late, r.tot.Expired),
			util,
			fmt.Sprintf("%.3f", r.f1),
			fmt.Sprintf("%.0f", float64(sustained)/r.elapsed.Seconds()))
	}
	t.Notes = append(t.Notes,
		"constant per-answer delay in ticks; answers past the deadline expire and are refunded",
		"F1 scores the final tick's answer set against the complete-data skyline of the surviving window",
		"utilisation metrics are informational — they describe the injected crowd, not the engine (no CI gate)")
	for i, lag := range []int{0, 1, 5, 20} {
		if i < len(metric) {
			t.SetMetric(fmt.Sprintf("answer_utilisation_lag%d", lag), metric[i])
		}
	}
	return []*Table{t}, nil
}

// windowOracleF1 scores an answer set against the oracle: the
// complete-data (BNL) skyline of the objects still in the window,
// looked up by stream id in the hidden truth dataset.
func windowOracleF1(truth *dataset.Dataset, live []stream.Ranked, answers []int) float64 {
	rows := make([][]int, len(live))
	ids := make([]int, len(live))
	for i, r := range live {
		ids[i] = r.ID
		cells := truth.Objects[r.ID].Cells
		row := make([]int, len(cells))
		for j, c := range cells {
			row[j] = c.Value
		}
		rows[i] = row
	}
	sub := dataset.FromRows(truth.Attrs, rows)
	oracle := make([]int, 0, len(ids))
	for _, i := range skyline.BNL(sub) {
		oracle = append(oracle, ids[i])
	}
	return metrics.F1(answers, oracle)
}
