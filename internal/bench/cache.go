package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/prob"
)

// minGatedRepeats is the fewest repeats the gated experiments (cache,
// scale, stream) take the median of: their ratios swing by a fifth
// between single runs on a shared host.
const minGatedRepeats = 5

// CacheExperiment — beyond the paper: the component-memoization ablation.
// It runs the crowdsourcing phase with the connected-component probability
// cache on and off, for UBS and HHS over the missing-rate sweep on the NBA
// dataset, and reports two timings per cell: the selection phase (the
// UBS/HHS candidate scoring the cache's marginal sweeps accelerate — the
// headline speedup) and the whole phase (which additionally carries the
// Pr(φ) maintenance bill, including the initial fan-out: that fan-out is
// all cold misses, but it fills the model's cache, which the run then
// reads and fills for the rest of the phase, so round 1's scans and
// recomputations start warm; the whole-phase speedup is still diluted at
// low missing rates where the fan-out dominates). The
// c-table is built once per environment, untimed, and shared by every
// run: the phase never writes it. Cached and uncached runs must agree;
// the experiment re-verifies the answer sets match on every run and flags
// any divergence in the table notes.
//
// The whole sweep repeats max(Scale.Reps, minGatedRepeats) times. Within
// a repeat each cell runs cache on and off back to back, alternating
// which goes first, so drift on a shared host hits both sides alike;
// cells report per-cell medians, and the gated metrics are the medians
// over repeats of each repeat's sweep-total ratio.
func CacheExperiment(s Scale) ([]*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Component cache (NBA n=%d): selection & phase time, cache on vs off", s.NBASize),
		Header: []string{"missing", "strategy", "select on", "select off", "sel speedup",
			"phase on", "phase off", "phase speedup",
			"hit rate", "hits", "misses", "evicted"},
	}
	strategies := []core.Strategy{core.UBS, core.HHS}
	type cell struct {
		e     *env
		dists prob.Dists
		ct    *ctable.CTable
		mr    float64
		strat core.Strategy
		// Per-repeat timings, [0] cache on and [1] cache off, and the
		// first repeat's cached result for the counter columns.
		sel, phase [2][]time.Duration
		first      *core.Result
	}
	var cells []*cell
	for _, mr := range s.MissingRates {
		e := nbaEnv(s, s.NBASize, mr)
		dists := e.dists() // preprocessing is offline; force it before timing
		ct := ctable.Build(e.incomplete, ctable.BuildOptions{Alpha: s.NBAAlpha, Workers: s.Workers})
		for _, strat := range strategies {
			cells = append(cells, &cell{e: e, dists: dists, ct: ct, mr: mr, strat: strat})
		}
	}

	repeats := max(s.Reps, minGatedRepeats)
	equal := true
	var selRatios, phaseRatios []float64
	for r := 0; r < repeats; r++ {
		// The UBS cells summed over the whole missing-rate sweep feed the
		// cache's machine-readable regression metrics below; individual
		// quick-scale cells are sub-millisecond and far too noisy to gate
		// on, the sweep total is dominated by the large cells.
		var selOn, selOff, phaseOn, phaseOff time.Duration
		for i, c := range cells {
			var res [2]*core.Result
			run := func(mode int) {
				opt := nbaOpts(s, c.strat)
				opt.NoCache = mode == 1
				opt.Rng = rand.New(rand.NewSource(s.Seed + int64(r)*101))
				platform := crowd.NewSimulated(c.e.truth, 1.0, nil)
				// Start every timed run from a collected heap, so neither
				// mode pays for garbage the other (or an earlier
				// experiment) left behind.
				runtime.GC()
				start := time.Now()
				out, err := core.RunCrowdPhase(c.e.incomplete, c.ct, c.dists, platform, opt)
				phase := time.Since(start)
				if err != nil {
					panic(err)
				}
				c.sel[mode] = append(c.sel[mode], out.SelectTime)
				c.phase[mode] = append(c.phase[mode], phase)
				res[mode] = out
			}
			if (r+i)%2 == 0 {
				run(0)
				run(1)
			} else {
				run(1)
				run(0)
			}
			if r == 0 {
				c.first = res[0]
			}
			if !reflect.DeepEqual(res[0].Answers, res[1].Answers) {
				equal = false
				t.Notes = append(t.Notes, fmt.Sprintf(
					"EQUIVALENCE VIOLATION at missing=%.2f %v repeat %d: answer sets differ between cache on and off",
					c.mr, c.strat, r))
			}
			if c.strat == core.UBS {
				selOn += c.sel[0][r]
				selOff += c.sel[1][r]
				phaseOn += c.phase[0][r]
				phaseOff += c.phase[1][r]
			}
		}
		if selOn > 0 && phaseOn > 0 {
			selRatios = append(selRatios, float64(selOff)/float64(selOn))
			phaseRatios = append(phaseRatios, float64(phaseOff)/float64(phaseOn))
		}
	}

	for _, c := range cells {
		cachedSel, plainSel := medianDur(c.sel[0]), medianDur(c.sel[1])
		cachedPhase, plainPhase := medianDur(c.phase[0]), medianDur(c.phase[1])
		st := c.first.Cache
		t.AddRow(fmt.Sprintf("%.2f", c.mr), c.strat.String(),
			fmtDur(cachedSel), fmtDur(plainSel), speedupCell(plainSel, cachedSel),
			fmtDur(cachedPhase), fmtDur(plainPhase), speedupCell(plainPhase, cachedPhase),
			fmt.Sprintf("%.1f%%", 100*st.HitRate()),
			fmt.Sprintf("%d", st.Hits), fmt.Sprintf("%d", st.Misses),
			fmt.Sprintf("%d", st.Evicted))
	}
	if equal {
		t.Notes = append(t.Notes,
			"answer sets identical between cache on and off on every run")
	}
	if len(selRatios) > 0 {
		t.SetMetric("sel_speedup_cache_vs_off", medianFloat(selRatios))
		t.SetMetric("phase_speedup_cache_vs_off", medianFloat(phaseRatios))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"cache bounded to %d components (prob.DefaultCacheSize); select = cumulative task-selection time (Result.SelectTime), phase = whole crowdsourcing phase, c-table built once untimed; cells are medians of %d sweep repeats with cache on/off interleaved, speedup metrics the median of the repeats' UBS sweep-total ratios",
		prob.DefaultCacheSize, repeats))
	return []*Table{t}, nil
}

// medianDur returns the median of ds, reordering it in place.
func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

// medianFloat returns the median of xs, reordering it in place.
func medianFloat(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// alternate times a measured mode (0) and its comparator (1) back to
// back, repeats times, alternating which goes first so drift on a
// shared host hits both alike, and returns each mode's per-repeat
// durations. run must collect garbage right before it starts its clock,
// so neither mode pays for garbage the other left behind.
func alternate(repeats int, run func(mode int) (time.Duration, error)) ([2][]time.Duration, error) {
	var d [2][]time.Duration
	for r := 0; r < repeats; r++ {
		for _, mode := range [2][2]int{{0, 1}, {1, 0}}[r%2] {
			t, err := run(mode)
			if err != nil {
				return d, err
			}
			d[mode] = append(d[mode], t)
		}
	}
	return d, nil
}

// medianSpeedup returns the median over repeats of the comparator's
// time over the measured mode's, each ratio taken within one repeat.
func medianSpeedup(d [2][]time.Duration) float64 {
	ratios := make([]float64, len(d[0]))
	for r := range ratios {
		ratios[r] = float64(d[1][r]) / float64(d[0][r])
	}
	return medianFloat(ratios)
}
