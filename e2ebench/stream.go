package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/skyline"
	"bayescrowd/internal/stream"
)

// streamInputs is the stream-crowd schedule: the hidden complete rows
// (stream id i is row i), the window fill and the arrivals, one per
// tick. The schedule, the crowd's delays and the selection tie-breaks
// all come from dataSeed, so -seed leaves stream-crowd's work unchanged:
// with any of them varied, the engine's path diverges and the mean tick
// time moves by up to 1.8× between seeds.
type streamInputs struct {
	w        workload
	truth    *dataset.Dataset
	fill     [][]dataset.Cell
	arrivals [][]dataset.Cell
}

// prepareStream generates the window fill and ticks arrivals. The rows
// and the holes come from separate generators, so the stream's prefix
// is the same however many ticks a run makes.
func prepareStream(w workload, ticks int) *streamInputs {
	truth := dataset.GenNBA(rand.New(rand.NewSource(subSeed(dataSeed, streamData))), w.window+ticks)
	d := truth.InjectMissing(rand.New(rand.NewSource(subSeed(dataSeed, streamHoles))), missingRate)
	in := &streamInputs{w: w, truth: truth}
	for i, o := range d.Objects {
		if i < w.window {
			in.fill = append(in.fill, o.Cells)
		} else {
			in.arrivals = append(in.arrivals, o.Cells)
		}
	}
	return in
}

// budget is the crowd budget: tasksPerTick for every tick of the
// schedule, so the budget never runs out and every tick may post.
func (in *streamInputs) budget() int { return in.w.tasksPerTick * len(in.arrivals) }

// platform is a fresh seeded crowd answering from the truth after 1–3
// ticks.
func (in *streamInputs) platform() *crowd.Unreliable {
	p := crowd.NewUnreliable(crowd.NewSimulated(in.truth, 1, nil), 0, 0, 0,
		rand.New(rand.NewSource(subSeed(dataSeed, streamCrowd))))
	p.MinDelay, p.MaxDelay = in.w.delayMin, in.w.delayMax
	return p
}

// engine is a fresh crowd engine over the workload's window.
func (in *streamInputs) engine(p crowd.Platform) (*stream.CrowdEngine, error) {
	return stream.NewCrowd(stream.CrowdConfig{
		Config: stream.Config{
			Attrs:   in.truth.Attrs,
			Window:  stream.Window{Count: in.w.window},
			Workers: daemonWorkers,
		},
		Platform:     p,
		Budget:       in.budget(),
		TasksPerTick: in.w.tasksPerTick,
		TaskDeadline: in.w.deadline,
		Strategy:     core.UBS,
		Rng:          rand.New(rand.NewSource(subSeed(dataSeed, streamSelect))),
	})
}

// oracleF1 scores a tick's answer set against the complete-data
// skyline of the objects then in the window.
func (in *streamInputs) oracleF1(live []stream.Ranked, answers []int) float64 {
	rows := make([][]int, len(live))
	for i, r := range live {
		cells := in.truth.Objects[r.ID].Cells
		rows[i] = make([]int, len(cells))
		for j, c := range cells {
			rows[i][j] = c.Value
		}
	}
	oracle := skyline.BNL(dataset.FromRows(in.truth.Attrs, rows))
	for i, k := range oracle {
		oracle[i] = live[k].ID
	}
	return metrics.F1(answers, oracle)
}

// stampedPlatform wraps the traced pass's crowd: it stamps each answer
// with the wall time it was posted and the engine tick it will arrive
// at, which gives the crowd's wait in wall time.
type stampedPlatform struct {
	inner *crowd.Unreliable
	tick  int // the engine tick being run
	sent  []sentAnswer
}

// sentAnswer is one answer in transit.
type sentAnswer struct {
	posted       time.Time
	tick, arrive int
}

// Post forwards to the inner platform.
func (p *stampedPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	return p.inner.Post(tasks)
}

// PostAsync forwards to the inner platform and stamps the answers.
func (p *stampedPlatform) PostAsync(tasks []crowd.Task) ([]crowd.DelayedAnswer, error) {
	answers, err := p.inner.PostAsync(tasks)
	now := time.Now()
	for _, a := range answers {
		p.sent = append(p.sent, sentAnswer{posted: now, tick: p.tick, arrive: p.tick + a.Delay})
	}
	return answers, err
}

// streamPass is one pass of stream-crowd: set-up, then the ticks.
type streamPass struct {
	setup      []float64 // seconds per window fill
	lat        []float64 // seconds per tick
	busy       time.Duration
	cpu        time.Duration // over the ticks, the oracle's scoring excluded
	heapGrowth int64         // heap the engine holds at the end
	window     int
	f1         []float64
	ticks      int
	broken     int // ticks after which the crowd ledger did not balance
	refused    int // ticks the memory guard stopped
	firstErr   error

	recomputed, invalidated int
	totals                  stream.CrowdLedger
	hits, misses            int64
}

// runStreamPass fills w.setups fresh engines (set-up), then ticks the
// last one through the first ticks arrivals, one per tick. Every tick's
// crowd ledger must balance; every checkpointEvery ticks the window is
// scored against the oracle, outside the tick timings and the CPU count.
func runStreamPass(in *streamInputs, ticks int, rec *recorder) (*streamPass, error) {
	p := &streamPass{window: in.w.window}
	heap0 := liveHeap()
	var ce *stream.CrowdEngine
	var stamped *stampedPlatform
	for i := 0; i < in.w.setups; i++ {
		u := in.platform()
		var plat crowd.Platform = u
		if rec != nil {
			stamped = &stampedPlatform{inner: u, tick: 1}
			plat = stamped
		}
		e, err := in.engine(plat)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		e.Tick(0, in.fill)
		p.setup = append(p.setup, time.Since(start).Seconds())
		ce = e
	}

	cache0 := ce.CacheStats()
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	tickStart := map[int]time.Time{}
	for t := 0; t < ticks; t++ {
		tick := t + 2 // the fill was the engine's tick 1
		if stamped != nil {
			stamped.tick = tick
		}
		ts := time.Now()
		res := ce.Tick(int64(t+1), in.arrivals[t:t+1])
		d := time.Since(ts)
		p.ticks++
		p.lat = append(p.lat, d.Seconds())
		p.busy += d
		p.recomputed += res.Recomputed
		p.invalidated += res.InvalidatedEntries
		if rec != nil {
			rec.add("tick", strconv.Itoa(tick), "", ts, ts.Add(d))
			tickStart[tick] = ts
		}
		if err := conserved(ce, res, in.budget()); err != nil {
			p.broken++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("tick %d: %w", tick, err)
			}
		}
		if p.ticks%checkpointEvery != 0 {
			continue
		}
		c, err := cpuTime()
		if err != nil {
			return nil, err
		}
		p.cpu += c - cpu0
		p.f1 = append(p.f1, in.oracleF1(ce.Snapshot(), res.Answers))
		if heapBytes() > heapCap {
			p.refused = ticks - p.ticks
			p.firstErr = fmt.Errorf("memory guard: heap passed %d MiB after %d ticks", heapCap>>20, p.ticks)
			break
		}
		if cpu0, err = cpuTime(); err != nil { // the oracle's CPU is not the engine's
			return nil, err
		}
	}
	p.heapGrowth = liveHeap() - heap0
	p.totals = ce.Totals()
	cache1 := ce.CacheStats()
	p.hits = int64(cache1.Hits - cache0.Hits)
	p.misses = int64(cache1.Misses - cache0.Misses)
	if stamped != nil {
		for _, a := range stamped.sent {
			if at, ok := tickStart[a.arrive]; ok {
				rec.add("task", strconv.Itoa(a.arrive), "tick:"+strconv.Itoa(a.tick), a.posted, at)
			}
		}
	}
	return p, nil
}

// conserved checks the crowd ledger after a tick: every posted task is
// charged, refunded or still reserved, reservations are the in-flight
// tasks, spending stays within the budget, and every arrived answer
// landed in exactly one outcome.
func conserved(ce *stream.CrowdEngine, res stream.CrowdTickResult, budget int) error {
	tot := ce.Totals()
	switch {
	case res.BudgetSpent+res.BudgetReserved > budget,
		res.BudgetSpent != tot.Charged,
		res.BudgetReserved != res.InFlight,
		tot.Posted != tot.Charged+tot.Refunded+res.BudgetReserved,
		tot.Refunded != tot.Expired+tot.Stale,
		tot.Arrived != tot.Absorbed+tot.Conflicts+tot.Stale+tot.Late:
		return fmt.Errorf("crowd ledger does not balance: totals %+v, spent %d, reserved %d, in flight %d",
			tot, res.BudgetSpent, res.BudgetReserved, res.InFlight)
	}
	return nil
}

// streamEndToEnd computes the user-facing metrics of untraced passes over
// the same ticks. A stream op is a tick, which serves the standing
// query's answer; the state the standing query retains is measured per
// window object. Each tick counts with its median time over the passes,
// and throughput, CPU and retained heap are medians over the passes, so
// a stall of the machine during one pass moves none of them.
func streamEndToEnd(passes []*streamPass) (map[string]float64, error) {
	var lat, rates, cpu, setup, f1, retained []float64
	for t := range passes[0].lat {
		var xs []float64
		for _, p := range passes {
			if t < len(p.lat) {
				xs = append(xs, p.lat[t])
			}
		}
		lat = append(lat, median(xs))
	}
	for _, p := range passes {
		rates = append(rates, float64(p.ticks)/p.busy.Seconds())
		cpu = append(cpu, ms(p.cpu)/float64(p.ticks))
		retained = append(retained, float64(p.heapGrowth)/1024/float64(p.window))
		setup = append(setup, p.setup...)
		f1 = append(f1, p.f1...)
	}
	p50, _, err := percentile(lat, 0.50)
	if err != nil {
		return nil, fmt.Errorf("tick latency: %w", err)
	}
	p95, _, err := percentile(lat, 0.95)
	if err != nil {
		return nil, fmt.Errorf("tick latency: %w", err)
	}
	return map[string]float64{
		"setup_s":               median(setup),
		"latency_p50_s":         p50,
		"latency_p95_s":         p95,
		"throughput_per_s":      median(rates),
		"cpu_ms_per_op":         median(cpu),
		"f1_mean":               mean(f1),
		"cost_units_per_query":  float64(passes[0].totals.Charged) / float64(passes[0].ticks),
		"retained_kb_per_query": median(retained),
	}, nil
}

// perLayer computes the stream and crowd layer metrics of a traced pass;
// machine is the Budget-0 replay's mean tick time.
func (p *streamPass) perLayer(rec *recorder, machine time.Duration) (map[string]float64, error) {
	n := float64(p.ticks)
	v := map[string]float64{
		"stream.recomputed_per_tick":  float64(p.recomputed) / n,
		"stream.invalidated_per_tick": float64(p.invalidated) / n,
		"stream.machine_ms_per_tick":  ms(machine),
		"stream.crowd_share":          1 - machine.Seconds()/(p.busy.Seconds()/n),
		"prob.solved_per_query":       float64(p.misses) / n,
	}
	if p.totals.Posted > 0 {
		v["stream.absorbed_ratio"] = float64(p.totals.Absorbed) / float64(p.totals.Posted)
	}
	if p.hits+p.misses > 0 {
		v["prob.cache_hit_ratio"] = float64(p.hits) / float64(p.hits+p.misses)
	}
	var err error
	if v["crowd.wait_ms_p50"], err = rec.p50("task"); err != nil {
		return nil, err
	}
	return v, nil
}

// replayStream runs the same schedule through the machine-only engine
// (the crowd engine at budget 0) for ticks ticks and returns its mean
// tick time.
func replayStream(in *streamInputs, ticks int) (time.Duration, error) {
	e, err := stream.New(stream.Config{
		Attrs:   in.truth.Attrs,
		Window:  stream.Window{Count: in.w.window},
		Workers: daemonWorkers,
	})
	if err != nil {
		return 0, err
	}
	e.Tick(0, in.fill)
	start := time.Now()
	for t := 0; t < ticks; t++ {
		e.Tick(int64(t+1), in.arrivals[t:t+1])
	}
	return time.Since(start) / time.Duration(ticks), nil
}
