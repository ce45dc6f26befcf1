package stream

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
)

// digestRun replays a fixed lossy crowd stream: an NBA window at 10%
// missing, a perfect crowd behind crowd.Unreliable dropping 10% of the
// answers and failing 5% of the rounds, answers 1–3 ticks late, a
// 4-tick deadline and 2 tasks a tick. It hashes (FNV-64a) every tick's
// Recomputed, Answers, crowd-ledger delta and the bits of every live
// probability, and returns the digest with the run's cache misses.
func digestRun(t *testing.T, strat core.Strategy, workers int) (uint64, uint64) {
	t.Helper()
	const window, ticks = 300, 120
	truth := dataset.GenNBA(rand.New(rand.NewSource(1)), window+ticks)
	holes := truth.InjectMissing(rand.New(rand.NewSource(2)), 0.1)
	platform := crowd.NewUnreliable(crowd.NewSimulated(truth, 1, nil), 0.1, 0.05, 0, rand.New(rand.NewSource(3)))
	platform.MinDelay, platform.MaxDelay = 1, 3
	ce, err := NewCrowd(CrowdConfig{
		Config:       Config{Attrs: truth.Attrs, Window: Window{Count: window}, Workers: workers},
		Platform:     platform,
		Budget:       2 * ticks,
		TasksPerTick: 2,
		TaskDeadline: 4,
		Strategy:     strat,
		M:            3,
		Rng:          rand.New(rand.NewSource(4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]dataset.Cell, len(holes.Objects))
	for i, o := range holes.Objects {
		rows[i] = o.Cells
	}
	h := fnv.New64a()
	put := func(xs ...int64) {
		for _, x := range xs {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	ce.Tick(0, rows[:window])
	for i := 0; i < ticks; i++ {
		res := ce.Tick(int64(i+1), rows[window+i:window+i+1])
		put(int64(res.Recomputed), int64(len(res.Answers)))
		for _, id := range res.Answers {
			put(int64(id))
		}
		l := res.Crowd
		put(int64(l.Posted), int64(l.Shared), int64(l.Charged), int64(l.Refunded), int64(l.Expired),
			int64(l.Stale), int64(l.Failed), int64(l.InFlight), l.ChargedMu, l.RefundedMu,
			int64(l.Arrived), int64(l.Absorbed), int64(l.Conflicts), int64(l.Late), int64(l.PostFailed))
		for _, r := range ce.Snapshot() {
			put(int64(r.ID), int64(math.Float64bits(r.P)))
		}
	}
	if tot := ce.Totals(); tot.Absorbed == 0 || tot.Expired == 0 || tot.PostFailed == 0 {
		t.Fatalf("%v: vacuous run, the crowd absorbed, expired or failed nothing: %+v", strat, tot)
	}
	return h.Sum64(), ce.CacheStats().Misses
}

// TestStreamDigestFrozen pins the crowd loop's observable behaviour on
// a lossy stream — every tick's recomputation count, answer set, crowd
// ledger and probability bits — to digests recorded before the loop's
// crowd state moved to window ids, under UBS and HHS at 1 and 2
// workers, and the cache-miss count at 1 worker, where it is
// deterministic.
func TestStreamDigestFrozen(t *testing.T) {
	for _, tc := range []struct {
		strat  core.Strategy
		digest uint64
		misses uint64
	}{
		{core.UBS, 0x1951d9523418ef26, 2565},
		{core.HHS, 0x89440860ba0b42c0, 2532},
	} {
		for _, workers := range []int{1, 2} {
			digest, misses := digestRun(t, tc.strat, workers)
			if digest != tc.digest {
				t.Errorf("%v workers %d: digest %#x, want %#x", tc.strat, workers, digest, tc.digest)
			}
			if workers == 1 && misses != tc.misses {
				t.Errorf("%v workers 1: %d cache misses, want %d", tc.strat, misses, tc.misses)
			}
		}
	}
}
