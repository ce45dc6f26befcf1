package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"bayescrowd/internal/dataset"
	"bayescrowd/internal/stream"
)

// StreamExperiment is the sustained-throughput gate of the streaming
// engine: an NBA-shaped stream first fills a count-bound window (the
// untimed warm-up tick), then StreamTicks sustained ticks of
// StreamArrivals arrivals each flow through the window at steady state —
// every tick an insert plus an eviction plus a refreshed answer set. The
// identical schedule runs twice, through the incremental engine (delta
// c-table maintenance, per-variable cache invalidation, dirty-only
// re-evaluation) and through the rebuild-per-tick baseline (fresh batch
// c-table and evaluator over the whole window every tick); the table
// reports each mode's sustained objects/sec and their ratio, the metric
// the CI regression gate holds at ≥3×. The two modes run back to back
// max(Scale.Reps, minGatedRepeats) times, interleaved (see alternate);
// the table reports median times and the median per-repeat ratio.
//
// Before anything is timed, one untimed pass cross-checks the two modes
// tick by tick: identical answer sets and rankings at every tick, or the
// experiment fails rather than publishing the throughput of a wrong
// result.
func StreamExperiment(s Scale) ([]*Table, error) {
	truth, fill, ticks := streamSchedule(s)
	attrs := truth.Attrs

	if err := streamEquivalence(s, attrs, fill, ticks); err != nil {
		return nil, err
	}

	repeats := max(s.Reps, minGatedRepeats)
	sustained := s.StreamArrivals * s.StreamTicks

	d, err := alternate(repeats, func(mode int) (time.Duration, error) {
		e, err := stream.New(stream.Config{
			Attrs:   attrs,
			Window:  stream.Window{Count: s.StreamWindow},
			Workers: s.Workers,
			Rebuild: mode == 1,
		})
		if err != nil {
			return 0, err
		}
		e.Tick(0, fill) // warm-up: fill the window, untimed
		runtime.GC()
		start := time.Now()
		for t, batch := range ticks {
			e.Tick(int64(t+1), batch)
		}
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}

	rate := func(d time.Duration) float64 { return float64(sustained) / d.Seconds() }
	speedup := medianSpeedup(d)
	inc, reb := medianDur(d[0]), medianDur(d[1])

	t := &Table{
		Title: fmt.Sprintf(
			"Stream: sustained throughput at steady state, window=%d, %d arrival(s)/tick, %d ticks (median of %d interleaved repeats)",
			s.StreamWindow, s.StreamArrivals, s.StreamTicks, repeats),
		Header: []string{"mode", "objects", "elapsed", "obj/s"},
	}
	t.AddRow("incremental", fmt.Sprintf("%d", sustained), fmtDur(inc), fmt.Sprintf("%.0f", rate(inc)))
	t.AddRow("rebuild/tick", fmt.Sprintf("%d", sustained), fmtDur(reb), fmt.Sprintf("%.0f", rate(reb)))
	t.AddRow("speedup", "-", "-", fmt.Sprintf("%.1fx", speedup))
	t.Notes = append(t.Notes,
		"window filled before timing; identical answer sets and rankings verified tick-by-tick")
	t.SetMetric("throughput_speedup_vs_rebuild", speedup)
	return []*Table{t}, nil
}

// streamSchedule pre-draws the whole arrival schedule — the window fill
// plus the sustained ticks — so every measured run (and the equivalence
// pass) consumes the identical NBA-shaped stream at the scale's missing
// rate. It also returns the complete dataset the cells were masked from:
// stream ids are assigned 0,1,2,... in arrival order, so row i of truth
// is the ground truth for stream id i — the hidden dataset a simulated
// crowd platform answers from and the oracle the soak scores against.
func streamSchedule(s Scale) (truth *dataset.Dataset, fill [][]dataset.Cell, ticks [][][]dataset.Cell) {
	rng := rand.New(rand.NewSource(s.Seed + 3))
	total := s.StreamWindow + s.StreamArrivals*s.StreamTicks
	truth = dataset.GenNBA(rng, total)
	d := truth.InjectMissing(rng, s.MissingRate)
	fill = make([][]dataset.Cell, s.StreamWindow)
	for i := range fill {
		fill[i] = d.Objects[i].Cells
	}
	ticks = make([][][]dataset.Cell, s.StreamTicks)
	for t := range ticks {
		batch := make([][]dataset.Cell, s.StreamArrivals)
		for i := range batch {
			batch[i] = d.Objects[s.StreamWindow+t*s.StreamArrivals+i].Cells
		}
		ticks[t] = batch
	}
	return truth, fill, ticks
}

// streamEquivalence runs both modes over the schedule once, untimed, and
// fails on the first tick where their answer sets or rankings diverge.
func streamEquivalence(s Scale, attrs []dataset.Attribute, fill [][]dataset.Cell, ticks [][][]dataset.Cell) error {
	mk := func(rebuild bool) (*stream.Engine, error) {
		return stream.New(stream.Config{
			Attrs:   attrs,
			Window:  stream.Window{Count: s.StreamWindow},
			TopK:    10,
			Workers: s.Workers,
			Rebuild: rebuild,
		})
	}
	inc, err := mk(false)
	if err != nil {
		return err
	}
	reb, err := mk(true)
	if err != nil {
		return err
	}
	all := append([][][]dataset.Cell{fill}, ticks...)
	for t, batch := range all {
		ri := inc.Tick(int64(t), batch)
		rr := reb.Tick(int64(t), batch)
		if !reflect.DeepEqual(ri.Answers, rr.Answers) {
			return fmt.Errorf("stream: answer sets diverged at tick %d: incremental %v, rebuild %v",
				t, ri.Answers, rr.Answers)
		}
		if !reflect.DeepEqual(ri.TopK, rr.TopK) {
			return fmt.Errorf("stream: rankings diverged at tick %d", t)
		}
	}
	return nil
}
