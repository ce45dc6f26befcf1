package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/prob"
)

// CacheExperiment — beyond the paper: the component-memoization ablation.
// It runs the crowdsourcing phase with the connected-component probability
// cache on and off, for UBS and HHS over the missing-rate sweep on the NBA
// dataset, and reports two timings per cell: the selection phase (the
// UBS/HHS candidate scoring the cache's marginal sweeps accelerate — the
// headline speedup) and the whole phase (which additionally carries the
// Pr(φ) maintenance bill; its initial fan-out is all cold misses, so the
// whole-phase speedup is diluted at low missing rates where that fan-out
// dominates). The c-table is built once per environment, untimed, and
// shared by every run: the phase never writes it. Cached and uncached
// runs must agree; the
// experiment re-verifies the answer sets match on every cell and flags
// any divergence in the table notes.
func CacheExperiment(s Scale) ([]*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Component cache (NBA n=%d): selection & phase time, cache on vs off", s.NBASize),
		Header: []string{"missing", "strategy", "select on", "select off", "sel speedup",
			"phase on", "phase off", "phase speedup",
			"hit rate", "hits", "misses", "evicted", "invalidated"},
	}
	equal := true
	var selOn, selOff, phaseOn, phaseOff time.Duration
	for _, mr := range s.MissingRates {
		e := nbaEnv(s, s.NBASize, mr)
		dists := e.dists() // preprocessing is offline; force it before timing
		ct := ctable.Build(e.incomplete, ctable.BuildOptions{Alpha: s.NBAAlpha, Workers: s.Workers})
		for _, strat := range []core.Strategy{core.UBS, core.HHS} {
			run := func(noCache bool) (sel, phase time.Duration, first *core.Result) {
				reps := s.Reps
				if reps < 1 {
					reps = 1
				}
				sels := make([]time.Duration, reps)
				phases := make([]time.Duration, reps)
				for r := 0; r < reps; r++ {
					opt := nbaOpts(s, strat)
					opt.NoCache = noCache
					opt.Rng = rand.New(rand.NewSource(s.Seed + int64(r)*101))
					platform := crowd.NewSimulated(e.truth, 1.0, nil)
					start := time.Now()
					res, err := core.RunCrowdPhase(e.incomplete, ct, dists, platform, opt)
					phases[r] = time.Since(start)
					if err != nil {
						panic(err)
					}
					sels[r] = res.SelectTime
					if r == 0 {
						first = res
					}
				}
				sort.Slice(sels, func(a, b int) bool { return sels[a] < sels[b] })
				sort.Slice(phases, func(a, b int) bool { return phases[a] < phases[b] })
				return sels[len(sels)/2], phases[len(phases)/2], first
			}

			cachedSel, cachedPhase, cachedRes := run(false)
			plainSel, plainPhase, plainRes := run(true)
			if !reflect.DeepEqual(cachedRes.Answers, plainRes.Answers) {
				equal = false
				t.Notes = append(t.Notes, fmt.Sprintf(
					"EQUIVALENCE VIOLATION at missing=%.2f %v: answer sets differ between cache on and off",
					mr, strat))
			}
			// The UBS cells summed over the whole missing-rate sweep feed
			// the cache's machine-readable regression metric below;
			// individual quick-scale cells are sub-millisecond and far too
			// noisy to gate on, the sweep total is dominated by the large
			// cells and stable.
			if strat == core.UBS {
				selOn += cachedSel
				selOff += plainSel
				phaseOn += cachedPhase
				phaseOff += plainPhase
			}
			st := cachedRes.Cache
			t.AddRow(fmt.Sprintf("%.2f", mr), strat.String(),
				fmtDur(cachedSel), fmtDur(plainSel), speedupCell(plainSel, cachedSel),
				fmtDur(cachedPhase), fmtDur(plainPhase), speedupCell(plainPhase, cachedPhase),
				fmt.Sprintf("%.1f%%", 100*st.HitRate()),
				fmt.Sprintf("%d", st.Hits), fmt.Sprintf("%d", st.Misses),
				fmt.Sprintf("%d", st.Evicted), fmt.Sprintf("%d", st.Invalidated))
		}
	}
	if equal {
		t.Notes = append(t.Notes,
			"answer sets identical between cache on and off on every cell")
	}
	if selOn > 0 && phaseOn > 0 {
		t.SetMetric("sel_speedup_cache_vs_off", float64(selOff)/float64(selOn))
		t.SetMetric("phase_speedup_cache_vs_off", float64(phaseOff)/float64(phaseOn))
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"cache bounded to %d components (prob.DefaultCacheSize); select = cumulative task-selection time (Result.SelectTime), phase = whole crowdsourcing phase, c-table built once untimed", prob.DefaultCacheSize))
	return []*Table{t}, nil
}
