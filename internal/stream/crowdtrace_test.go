package stream

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/obs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the checked-in golden trace from the current run")

// goldenCrowdRun executes the fixed-seed streaming-crowd run behind the
// golden trace: a sliding count window with a lagging, lossy crowd —
// answer delays, drops, spam and round outages all enabled — so the
// trace exercises the task lifecycle events (post, answer, expire,
// stale) alongside the machine tick events. Everything that feeds an
// event is seeded, so the bytes must not depend on the worker count.
func goldenCrowdRun(t *testing.T, workers int) ([]byte, crowd.Ledger) {
	t.Helper()
	sc := genCrowdScript(rand.New(rand.NewSource(71)), 25, 2, 0.4)

	var buf bytes.Buffer
	sink := obs.NewTrace(&buf)
	rec := obs.NewRecorder(sink)

	sim := crowd.NewSimulated(sc.truth, 0.85, rand.New(rand.NewSource(72)))
	platform := crowd.NewUnreliable(sim, 0.15, 0.1, 0.1, rand.New(rand.NewSource(73)))
	platform.MinDelay, platform.MaxDelay = 0, 3
	platform.Obs = rec

	ce, err := NewCrowd(CrowdConfig{
		Config: Config{
			Attrs:   sc.attrs,
			Window:  Window{Count: 9},
			TopK:    3,
			Workers: workers,
			Obs:     rec,
		},
		Platform:     platform,
		Budget:       40,
		TasksPerTick: 2,
		TaskDeadline: 2,
		Strategy:     core.HHS,
		M:            2,
		Rng:          rand.New(rand.NewSource(74)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for tick, batch := range sc.ticks {
		ce.Tick(int64(tick), batch)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ce.Totals()
}

// TestGoldenCrowdTrace pins the tentpole's determinism acceptance
// criterion: the JSONL trace of a seeded streaming-crowd run — delays,
// drops, outages and stale discards included — is byte-identical across
// worker counts and matches the checked-in golden file. Regenerate the
// golden after an intentional event change with
//
//	go test ./internal/stream -run TestGoldenCrowdTrace -update-golden
func TestGoldenCrowdTrace(t *testing.T) {
	got1, tot1 := goldenCrowdRun(t, 1)
	got8, tot8 := goldenCrowdRun(t, 8)
	if !bytes.Equal(got1, got8) {
		t.Errorf("trace differs between 1 and 8 workers:\n%s", firstDiffLine(got1, got8))
	}
	if tot1 != tot8 {
		t.Errorf("run ledgers differ between 1 and 8 workers: %+v vs %+v", tot1, tot8)
	}
	// The run must actually exercise the lifecycle it pins: the ledger
	// has to show lost work, not just a prompt crowd's happy path.
	if tot1.Absorbed == 0 || tot1.Expired+tot1.Stale+tot1.Late == 0 {
		t.Fatalf("golden run does not exercise the task lifecycle: %+v", tot1)
	}
	for _, kind := range []obs.Kind{obs.KindStreamTaskPost, obs.KindStreamTaskAnswer, obs.KindStreamTaskExpire, obs.KindStreamTaskStale} {
		if !bytes.Contains(got1, []byte(`"kind":"`+kind+`"`)) {
			t.Errorf("golden trace has no %q event", kind)
		}
	}

	golden := filepath.Join("testdata", "crowdtrace.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got1, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got1))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if !bytes.Equal(got1, want) {
		t.Errorf("trace differs from %s (intentional event change? rerun with -update-golden):\n%s",
			golden, firstDiffLine(got1, want))
	}
}

// firstDiffLine renders the first line where two traces diverge, with
// its line number, for a readable failure message.
func firstDiffLine(a, b []byte) string {
	la := bytes.Split(a, []byte("\n"))
	lb := bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return "line " + strconv.Itoa(i+1) + ":\n  " + string(la[i]) + "\n  " + string(lb[i])
		}
	}
	return "one trace is a prefix of the other (" + strconv.Itoa(len(la)) + " vs " + strconv.Itoa(len(lb)) + " lines)"
}
