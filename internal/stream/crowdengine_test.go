package stream

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

// crowdScript is an arrival schedule plus the hidden complete dataset
// behind it: row i of truth is the ground truth for stream id i (ids are
// assigned 0,1,2,... in arrival order and never reused), so a Simulated
// platform over truth answers streaming tasks correctly.
type crowdScript struct {
	attrs []dataset.Attribute
	truth *dataset.Dataset
	ticks [][][]dataset.Cell
}

func genCrowdScript(rng *rand.Rand, nTicks, perTick int, missRate float64) crowdScript {
	attrs := testAttrs(rng)
	var rows [][]int
	ticks := make([][][]dataset.Cell, nTicks)
	for t := range ticks {
		batch := make([][]dataset.Cell, perTick)
		for i := range batch {
			row := make([]int, len(attrs))
			cells := make([]dataset.Cell, len(attrs))
			for j, a := range attrs {
				row[j] = rng.Intn(a.Levels)
				if rng.Float64() < missRate {
					cells[j] = dataset.Unknown()
				} else {
					cells[j] = dataset.Known(row[j])
				}
			}
			rows = append(rows, row)
			batch[i] = cells
		}
		ticks[t] = batch
	}
	return crowdScript{attrs: attrs, truth: dataset.FromRows(attrs, rows), ticks: ticks}
}

// checkLedger asserts the budget-conservation invariants that must hold
// after every tick: every posted unit is charged, refunded or still
// reserved; the reservation count is the in-flight count; charges never
// exceed the budget; every arrived answer landed in exactly one of the
// four outcome buckets; and crowd.Ledger's own laws hold on the run
// totals and on the tick's delta.
func checkLedger(t *testing.T, tag string, c *CrowdEngine, budget int, res CrowdTickResult) {
	t.Helper()
	tot := c.Totals()
	if res.BudgetSpent+res.BudgetReserved > budget {
		t.Fatalf("%s: spent %d + reserved %d exceeds budget %d", tag, res.BudgetSpent, res.BudgetReserved, budget)
	}
	if res.BudgetSpent != tot.Charged {
		t.Fatalf("%s: spent %d != total charged %d", tag, res.BudgetSpent, tot.Charged)
	}
	if res.BudgetReserved != res.InFlight {
		t.Fatalf("%s: reserved %d != in-flight %d", tag, res.BudgetReserved, res.InFlight)
	}
	if tot.Posted != tot.Charged+tot.Refunded+res.BudgetReserved {
		t.Fatalf("%s: posted %d != charged %d + refunded %d + reserved %d",
			tag, tot.Posted, tot.Charged, tot.Refunded, res.BudgetReserved)
	}
	if tot.Refunded != tot.Expired+tot.Stale {
		t.Fatalf("%s: refunded %d != expired %d + stale %d", tag, tot.Refunded, tot.Expired, tot.Stale)
	}
	if tot.Arrived != tot.Absorbed+tot.Conflicts+tot.Stale+tot.Late {
		t.Fatalf("%s: arrived %d != absorbed %d + conflicts %d + stale %d + late %d",
			tag, tot.Arrived, tot.Absorbed, tot.Conflicts, tot.Stale, tot.Late)
	}
	if !tot.Conserved() {
		t.Fatalf("%s: run ledger not conserved: %+v", tag, tot)
	}
	led := res.Crowd
	if !led.Conserved() {
		t.Fatalf("%s: tick ledger not conserved: %+v", tag, led)
	}
	if want := led.Expired+led.Stale+led.Late+led.PostFailed > 0; res.Lagging != want {
		t.Fatalf("%s: Lagging = %v, ledger says %v (%+v)", tag, res.Lagging, want, led)
	}
}

// TestCrowdBudgetZeroMatchesMachineEngine pins the degradation floor:
// with no budget the crowd engine is the machine engine — every tick's
// full result and snapshot are identical, and the ledger stays zero.
func TestCrowdBudgetZeroMatchesMachineEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 3; trial++ {
		sc := genScript(rng, 20)
		cfg := Config{Attrs: sc.attrs, Window: Window{Count: 10}, TopK: 4}
		ce, err := NewCrowd(CrowdConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		me, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tick, batch := range sc.ticks {
			rc := ce.Tick(int64(tick), batch)
			rm := me.Tick(int64(tick), batch)
			if !reflect.DeepEqual(rc.TickResult, rm) {
				t.Fatalf("trial %d tick %d: budget-0 tick diverged\n crowd:   %+v\n machine: %+v", trial, tick, rc.TickResult, rm)
			}
			if !reflect.DeepEqual(ce.Snapshot(), me.Snapshot()) {
				t.Fatalf("trial %d tick %d: budget-0 snapshot diverged", trial, tick)
			}
			if rc.Crowd != (crowd.Ledger{}) || rc.InFlight != 0 || rc.BudgetSpent != 0 || rc.BudgetReserved != 0 || rc.Lagging {
				t.Fatalf("trial %d tick %d: budget-0 run moved the ledger: %+v", trial, tick, rc)
			}
		}
	}
}

// TestCrowdAllStaleAnswersAreSafe is the adversarial schedule: the
// window churns faster than the crowd answers, so every posted task's
// objects are evicted before the answer arrives (constant delay above
// the object lifetime) or the task expires first (delay above the
// deadline). Either way no answer may ever be absorbed, every unit must
// be refunded, no tick may error, and the served answers must be
// identical to the machine-only run of the same schedule.
func TestCrowdAllStaleAnswersAreSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const deadline = 5
	for _, delay := range []int{3, deadline + 2} {
		sc := genCrowdScript(rng, 20, 2, 0.45)
		// Span 2 with unit tick spacing: an object inserted at tick T is
		// evicted at tick T+2, and task selection only sees objects from
		// tick T-1 or older — so a delay of 3+ always loses the race.
		cfg := Config{Attrs: sc.attrs, Window: Window{Span: 2}, TopK: 4}
		platform := crowd.NewUnreliable(crowd.NewSimulated(sc.truth, 1, nil), 0, 0, 0, nil)
		platform.MinDelay, platform.MaxDelay = delay, delay
		const budget = 100
		ce, err := NewCrowd(CrowdConfig{
			Config:       cfg,
			Platform:     platform,
			Budget:       budget,
			TasksPerTick: 2,
			TaskDeadline: deadline,
			Strategy:     core.FBS,
			Rng:          rand.New(rand.NewSource(7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		me, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// The arrival schedule plus drain ticks: age evicts the whole
		// window, in-flight tasks resolve or expire, the mailbox empties.
		tick := 0
		step := func(batch [][]dataset.Cell) {
			tag := fmt.Sprintf("delay %d tick %d", delay, tick)
			rc := ce.Tick(int64(tick), batch)
			rm := me.Tick(int64(tick), batch)
			checkLedger(t, tag, ce, budget, rc)
			if !reflect.DeepEqual(rc.TickResult, rm) {
				t.Fatalf("%s: stale answers changed the served result\n crowd:   %+v\n machine: %+v", tag, rc.TickResult, rm)
			}
			if !reflect.DeepEqual(ce.Snapshot(), me.Snapshot()) {
				t.Fatalf("%s: stale answers changed a probability", tag)
			}
			tick++
		}
		for _, batch := range sc.ticks {
			step(batch)
		}
		for i := 0; i < deadline+delay+2; i++ {
			step(nil)
		}

		tot := ce.Totals()
		if tot.Posted == 0 {
			t.Fatalf("delay %d: adversarial run posted no tasks — vacuous", delay)
		}
		if tot.Absorbed != 0 || tot.Conflicts != 0 {
			t.Fatalf("delay %d: a stale answer was absorbed: %+v", delay, tot)
		}
		if ce.Spent() != 0 || tot.Charged != 0 {
			t.Fatalf("delay %d: stale work was charged: spent %d, %+v", delay, ce.Spent(), tot)
		}
		if ce.Reserved() != 0 || ce.InFlight() != 0 {
			t.Fatalf("delay %d: drained run still holds %d reservations, %d in flight", delay, ce.Reserved(), ce.InFlight())
		}
		if tot.Refunded != tot.Posted {
			t.Fatalf("delay %d: refunded %d of %d posted units", delay, tot.Refunded, tot.Posted)
		}
		if len(ce.mailbox) != 0 {
			t.Fatalf("delay %d: mailbox still holds %d arrival slots after drain", delay, len(ce.mailbox))
		}
		if !ce.know.Empty() {
			t.Fatalf("delay %d: knowledge is not empty after an all-stale run", delay)
		}
		if delay <= deadline {
			// On-time answers that lost the eviction race: all stale.
			if tot.Stale != tot.Posted || tot.Expired != 0 || tot.Late != 0 {
				t.Fatalf("delay %d: want all answers stale, got %+v", delay, tot)
			}
		} else {
			// Answers past the deadline: every task expired first, every
			// answer arrived late (already refunded by the expiry).
			if tot.Expired != tot.Posted || tot.Late != tot.Posted || tot.Stale != 0 {
				t.Fatalf("delay %d: want all tasks expired and answers late, got %+v", delay, tot)
			}
		}
	}
}

// TestCrowdLedgerInvariantsUnderFaults runs the full fault gauntlet —
// drops, outages, spam, imperfect workers, a delay range — and checks
// the budget-conservation invariants after every tick. The engine must
// keep serving (never panic, never block) whatever the crowd does.
func TestCrowdLedgerInvariantsUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	sc := genCrowdScript(rng, 40, 3, 0.4)
	sim := crowd.NewSimulated(sc.truth, 0.8, rand.New(rand.NewSource(11)))
	platform := crowd.NewUnreliable(sim, 0.25, 0.25, 0.1, rand.New(rand.NewSource(12)))
	platform.MinDelay, platform.MaxDelay = 0, 3
	const budget = 80
	ce, err := NewCrowd(CrowdConfig{
		Config:       Config{Attrs: sc.attrs, Window: Window{Count: 10}, TopK: 4},
		Platform:     platform,
		Budget:       budget,
		TasksPerTick: 3,
		TaskDeadline: 2,
		Strategy:     core.UBS,
		Rng:          rand.New(rand.NewSource(13)),
	})
	if err != nil {
		t.Fatal(err)
	}
	lastSpent, sawLag := 0, false
	for tick, batch := range sc.ticks {
		res := ce.Tick(int64(tick), batch)
		tag := fmt.Sprintf("tick %d", tick)
		checkLedger(t, tag, ce, budget, res)
		if res.BudgetSpent < lastSpent {
			t.Fatalf("%s: spent went backwards (%d -> %d)", tag, lastSpent, res.BudgetSpent)
		}
		lastSpent = res.BudgetSpent
		sawLag = sawLag || res.Lagging
		// Graceful degradation: the answer set is served every tick.
		if got := ce.Snapshot(); len(got) != ce.Len() {
			t.Fatalf("%s: snapshot covers %d of %d live objects", tag, len(got), ce.Len())
		}
	}
	tot := ce.Totals()
	if tot.Posted == 0 || tot.Absorbed == 0 {
		t.Fatalf("fault run was vacuous: %+v", tot)
	}
	if !sawLag {
		t.Fatal("fault injection at these rates never produced a lagging tick")
	}
	if platform.Dropped == 0 || platform.Outages == 0 {
		t.Fatalf("injector fired no faults: dropped %d, outages %d", platform.Dropped, platform.Outages)
	}
}

// TestCrowdPromptAnswersImprove checks the loop does real work when the
// crowd keeps up: a prompt, accurate platform absorbs answers within
// the posting tick and the probabilities move off the machine-only run.
func TestCrowdPromptAnswersImprove(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	sc := genCrowdScript(rng, 25, 2, 0.5)
	cfg := Config{Attrs: sc.attrs, Window: Window{Count: 12}, TopK: 4}
	const budget = 40
	ce, err := NewCrowd(CrowdConfig{
		Config:       cfg,
		Platform:     crowd.NewSimulated(sc.truth, 1, nil), // plain Platform: adapted, delay 0
		Budget:       budget,
		TasksPerTick: 2,
		TaskDeadline: 2,
		Strategy:     core.FBS,
		Rng:          rand.New(rand.NewSource(21)),
	})
	if err != nil {
		t.Fatal(err)
	}
	me, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for tick, batch := range sc.ticks {
		res := ce.Tick(int64(tick), batch)
		me.Tick(int64(tick), batch)
		checkLedger(t, fmt.Sprintf("tick %d", tick), ce, budget, res)
		if !reflect.DeepEqual(ce.Snapshot(), me.Snapshot()) {
			diverged = true
		}
	}
	tot := ce.Totals()
	if tot.Absorbed == 0 {
		t.Fatalf("prompt crowd absorbed nothing: %+v", tot)
	}
	if tot.Stale != 0 || tot.Late != 0 || tot.Expired != 0 {
		t.Fatalf("prompt crowd still lost work: %+v", tot)
	}
	if tot.Charged != tot.Absorbed+tot.Conflicts {
		t.Fatalf("charge-on-answer violated: %+v", tot)
	}
	if !diverged {
		t.Fatal("absorbed answers never changed a probability — the crowd loop is inert")
	}
}

// TestCrowdWorkerInvariance pins the determinism contract on the full
// crowd loop: with identically seeded platforms, a 1-worker and an
// 8-worker run agree on every tick result, ledger and snapshot.
func TestCrowdWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	sc := genCrowdScript(rng, 30, 2, 0.4)
	mk := func(workers int) *CrowdEngine {
		sim := crowd.NewSimulated(sc.truth, 0.85, rand.New(rand.NewSource(31)))
		platform := crowd.NewUnreliable(sim, 0.15, 0.05, 0.1, rand.New(rand.NewSource(32)))
		platform.MinDelay, platform.MaxDelay = 0, 2
		ce, err := NewCrowd(CrowdConfig{
			Config:       Config{Attrs: sc.attrs, Window: Window{Count: 10}, TopK: 4, Workers: workers},
			Platform:     platform,
			Budget:       50,
			TasksPerTick: 2,
			TaskDeadline: 3,
			Strategy:     core.HHS,
			M:            2,
			Rng:          rand.New(rand.NewSource(33)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return ce
	}
	seq, par := mk(1), mk(8)
	for tick, batch := range sc.ticks {
		rs := seq.Tick(int64(tick), batch)
		rp := par.Tick(int64(tick), batch)
		// Speculative utility scoring at workers > 1 warms the component
		// cache with extra entries, so the cache-occupancy counter is the
		// one documented worker-sensitive observable.
		rs.InvalidatedEntries, rp.InvalidatedEntries = 0, 0
		if !reflect.DeepEqual(rs, rp) {
			t.Fatalf("tick %d: results differ between workers=1 and workers=8\n seq: %+v\n par: %+v", tick, rs, rp)
		}
		if !reflect.DeepEqual(seq.Snapshot(), par.Snapshot()) {
			t.Fatalf("tick %d: snapshots differ between workers=1 and workers=8", tick)
		}
	}
	if seq.Totals() != par.Totals() {
		t.Fatalf("run ledgers differ: %+v vs %+v", seq.Totals(), par.Totals())
	}
}

// probePlatform is an asynchronous platform that runs check before
// every post, whichever channel the engine posts through.
type probePlatform struct {
	*crowd.Unreliable
	check func()
}

func (p *probePlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	p.check()
	return p.Unreliable.Post(tasks)
}

func (p *probePlatform) PostAsync(tasks []crowd.Task) ([]crowd.DelayedAnswer, error) {
	p.check()
	return p.Unreliable.PostAsync(tasks)
}

// TestSelectionReadsNoStaleCache checks what task selection reads: at
// every post — after the tick's answers renormalised distributions, and
// before re-evaluation — every cached live, undecided condition's Pr(φ)
// through the engine's cached evaluator is bit-identical to an uncached
// evaluation over the same distributions and narrowings. Answers land
// one to three ticks after posting, so renormalisations keep arriving
// between re-evaluations.
func TestSelectionReadsNoStaleCache(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	sc := genCrowdScript(rng, 60, 3, 0.5)
	inner := crowd.NewUnreliable(crowd.NewSimulated(sc.truth, 1, nil), 0, 0, 0, rand.New(rand.NewSource(41)))
	inner.MinDelay, inner.MaxDelay = 1, 3
	platform := &probePlatform{Unreliable: inner}
	ce, err := NewCrowd(CrowdConfig{
		Config:       Config{Attrs: sc.attrs, Window: Window{Count: 100}},
		Platform:     platform,
		Budget:       200,
		TasksPerTick: 2,
		TaskDeadline: 3,
		Strategy:     core.UBS,
		Rng:          rand.New(rand.NewSource(43)),
	})
	if err != nil {
		t.Fatal(err)
	}
	reads, mismatches, worst := 0, 0, 0.0
	platform.check = func() {
		ev := ce.eng.ev
		plain := &prob.Evaluator{IDs: ev.IDs, Vars: ev.Vars}
		for id, cond := range ce.conds {
			if _, decided := cond.Decided(); decided || ce.gone[id] {
				continue
			}
			reads++
			got, want := ev.Prob(cond), plain.Prob(cond)
			if math.Float64bits(got) != math.Float64bits(want) {
				mismatches++
				worst = max(worst, math.Abs(got-want))
			}
		}
	}
	for tick, batch := range sc.ticks {
		ce.Tick(int64(tick), batch)
	}
	if tot := ce.Totals(); reads == 0 || tot.Absorbed == 0 {
		t.Fatalf("vacuous run: %d reads, ledger %+v", reads, tot)
	}
	if mismatches > 0 {
		t.Fatalf("%d of %d cached reads differ from an uncached evaluation, the largest by %v", mismatches, reads, worst)
	}
}

// TestCrowdConfigValidation exercises NewCrowd's rejection paths.
func TestCrowdConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	attrs := testAttrs(rng)
	base := Config{Attrs: attrs, Window: Window{Count: 4}}
	ok := func(cfg CrowdConfig, want string) {
		t.Helper()
		if _, err := NewCrowd(cfg); err == nil {
			t.Fatalf("NewCrowd accepted %s", want)
		}
	}
	truth := dataset.FromRows(attrs, nil)
	sim := crowd.NewSimulated(truth, 1, nil)
	seeded := rand.New(rand.NewSource(1))
	ok(CrowdConfig{Config: base, Budget: -1}, "a negative budget")
	ok(CrowdConfig{Config: base, Budget: 1, Rng: seeded}, "a budget without a platform")
	ok(CrowdConfig{Config: base, Budget: 1, Platform: sim}, "a budget without an Rng")
	ok(CrowdConfig{Config: base, Budget: 1, Platform: sim, Rng: seeded, Strategy: core.HHS}, "HHS without M")
	reb := base
	reb.Rebuild = true
	ok(CrowdConfig{Config: reb, Budget: 1, Platform: sim, Rng: seeded}, "a crowd budget in Rebuild mode")
	if _, err := NewCrowd(CrowdConfig{Config: base}); err != nil {
		t.Fatalf("budget-0 config rejected: %v", err)
	}
}
