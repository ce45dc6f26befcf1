package bench

import (
	"fmt"
	"runtime"
	"time"
)

// ScaleExperiment is the c-table construction sweep over Scale.ScaleNs
// (up to 1,000,000 objects at paper scale): the sort-based build versus
// the seed's pairwise dominator scan, which is also the paper's Fig. 2
// baseline. The quadratic baseline is skipped above
// Scale.ScalePairwiseCap and the skip is noted, never silent. Dataset
// generation is untimed; only ctable.Build is measured. The build speedup
// is a dimensionless in-run ratio measured within one process, so the
// committed baseline transfers across machines. Each capped cardinality
// builds both ways max(Scale.Reps, minGatedRepeats) times, interleaved
// (see alternate); cells are median times and the speedup is the median
// of the per-repeat ratios.
func ScaleExperiment(s Scale) ([]*Table, error) {
	t := &Table{
		Title:  "Scale: c-table construction, sort-based vs pairwise seed baseline",
		Header: []string{"|O|", "sorted", "pairwise", "speedup"},
	}
	repeats := max(s.Reps, minGatedRepeats)
	for _, n := range s.ScaleNs {
		e := nbaEnv(s, n, s.MissingRate)
		if n > s.ScalePairwiseCap {
			t.AddRow(fmt.Sprintf("%d", n), fmtDur(timeBuild(e, s.NBAAlpha, false)), "-", "-")
			t.Notes = append(t.Notes, fmt.Sprintf(
				"|O|=%d: pairwise baseline skipped above the %d-object cap (quadratic)",
				n, s.ScalePairwiseCap))
			continue
		}
		d, err := alternate(repeats, func(mode int) (time.Duration, error) {
			runtime.GC()
			return timeBuild(e, s.NBAAlpha, mode == 1), nil
		})
		if err != nil {
			return nil, err
		}
		ratio := medianSpeedup(d)
		t.AddRow(fmt.Sprintf("%d", n), fmtDur(medianDur(d[0])), fmtDur(medianDur(d[1])),
			fmt.Sprintf("%.1fx", ratio))
		// The largest capped cardinality wins: later rows overwrite.
		t.SetMetric("build_speedup_vs_seed", ratio)
	}
	return []*Table{t}, nil
}
