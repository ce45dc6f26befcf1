package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/prob"
	"bayescrowd/internal/service"
	"bayescrowd/internal/skyline"
)

// datasetName prefixes the registered datasets: the first daemon of a
// run registers nba1..nba<w.setups>, later ones nba1, and every query
// runs over nba1.
const datasetName = "nba"

// queryTimeout bounds one query's wait; the task deadline is far below.
const queryTimeout = time.Minute

// svcInputs is everything a svc-* run derives from its seed before the
// daemon starts.
type svcInputs struct {
	w     workload
	seed  int64
	truth *dataset.Dataset // the hidden complete data the crowd answers from
	data  *dataset.Dataset // truth with missingRate of its cells hidden
	sky   []int            // complete-data skyline, the F1 reference
	base  prob.Dists       // the posteriors the daemon computes at registration
	specs []service.QueryRequest
	want  []libAnswer // the library's answer per spec
}

// libAnswer is the part of a library result a daemon result must match.
type libAnswer struct {
	answers              []int
	probs                map[int]float64
	posted, rounds, cost int
}

// prepareSvc generates the data, the query cycle and, before anything
// is timed, each spec's library answer (core.RunWithDists over the same
// posteriors) that every daemon result is checked against.
func prepareSvc(w workload, seed int64) (*svcInputs, error) {
	rng := rand.New(rand.NewSource(subSeed(dataSeed, streamData)))
	truth := dataset.GenNBA(rng, w.objects)
	in := &svcInputs{w: w, seed: seed, truth: truth, data: truth.InjectMissing(rng, missingRate)}
	in.sky = skyline.BNL(truth)
	base, err := core.Preprocess(in.data, core.Options{Workers: daemonWorkers})
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	in.base = base
	in.specs = specs(w, seed, datasetName+"1")
	for i, req := range in.specs {
		res, err := core.RunWithDists(in.data, base, crowd.NewSimulated(truth, 1, nil), libOptions(req))
		if err != nil {
			return nil, fmt.Errorf("library answer of spec %d: %w", i, err)
		}
		in.want = append(in.want, libAnswer{answers: res.Answers, probs: res.Probs,
			posted: res.TasksPosted, rounds: res.Rounds, cost: res.BudgetSpent})
	}
	return in, nil
}

// libOptions are the library options the daemon runs req with
// (service.SubmitQuery's mapping of the fields the benchmark sets).
func libOptions(req service.QueryRequest) core.Options {
	strategy := core.UBS
	switch req.Strategy {
	case "FBS":
		strategy = core.FBS
	case "HHS":
		strategy = core.HHS
	}
	return core.Options{
		Alpha:    req.Alpha,
		Budget:   req.Budget,
		Latency:  req.Latency,
		Strategy: strategy,
		M:        req.M,
		Workers:  daemonWorkers,
		Rng:      rand.New(rand.NewSource(req.Seed)),
	}
}

// datasetBody renders the incomplete data as a POST /v1/datasets body;
// a missing cell is null.
func datasetBody(d *dataset.Dataset, name string) ([]byte, error) {
	req := service.DatasetRequest{Name: name}
	for _, a := range d.Attrs {
		req.Attrs = append(req.Attrs, service.AttrSpec{Name: a.Name, Levels: a.Levels})
	}
	for _, o := range d.Objects {
		row := make([]*int, len(o.Cells))
		for j, c := range o.Cells {
			if !c.Missing {
				v := c.Value
				row[j] = &v
			}
		}
		req.Rows = append(req.Rows, row)
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("dataset body: %w", err)
	}
	return b, nil
}

// check compares a finished query with its spec's library answer: same
// answer set, bit-identical probabilities, same cost, no degradation,
// and a settled, conserved ledger.
func (in *svcInputs) check(spec int, st *service.QueryStatus) error {
	if st.State != service.StateDone || st.Result == nil {
		return fmt.Errorf("query %s ended %s: %s", st.ID, st.State, st.Error)
	}
	r, want := st.Result, in.want[spec]
	if r.Degraded {
		return fmt.Errorf("query %s degraded: %s", st.ID, r.DegradedReason)
	}
	if !st.Ledger.Conserved() || st.Ledger.InFlight != 0 {
		return fmt.Errorf("query %s: ledger not settled: %+v", st.ID, st.Ledger)
	}
	if r.TasksPosted != want.posted || r.Rounds != want.rounds || r.BudgetSpent != want.cost {
		return fmt.Errorf("query %s (spec %d): posted/rounds/spent %d/%d/%d, library %d/%d/%d",
			st.ID, spec, r.TasksPosted, r.Rounds, r.BudgetSpent, want.posted, want.rounds, want.cost)
	}
	if !equalInts(r.Answers, want.answers) {
		return fmt.Errorf("query %s (spec %d): answer set differs from the library's", st.ID, spec)
	}
	if len(r.Probs) != len(want.probs) {
		return fmt.Errorf("query %s (spec %d): %d probabilities, library %d", st.ID, spec, len(r.Probs), len(want.probs))
	}
	for obj, p := range want.probs {
		got, ok := r.Probs[strconv.Itoa(obj)]
		if !ok || math.Float64bits(got) != math.Float64bits(p) {
			return fmt.Errorf("query %s (spec %d): Pr(φ) of object %d is %v, library %v", st.ID, spec, obj, got, p)
		}
	}
	return nil
}

// equalInts reports whether two int slices hold the same sequence.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// outcome is one query as the client saw it. The result payload is
// checked and scored as soon as the query finishes and then dropped, so
// the benchmark's own memory stays out of the retained-heap metric.
type outcome struct {
	spec              int
	id                string
	origin            time.Time // latency starts here: submit, or the scheduled send
	created, finished time.Time // the server's stamps
	f1                float64
	chargedMu         int64
	err               error
}

// svcPass is one pass of a svc-* workload: one or more fresh daemons in
// turn, each set up and then given its share of the queries.
type svcPass struct {
	closed     bool
	setup      []float64 // seconds per dataset registration
	outcomes   []outcome
	refused    int           // queries the memory guard turned away
	start      time.Time     // open loop: start of the measured phase
	cycles     []cycleStat   // closed loop: one per spec cycle
	cpu        time.Duration // over the measured phases
	heapGrowth int64         // summed over the daemons
	lateMax    time.Duration
	sinkErrs   int
	sinkFirst  error

	// Traced pass only.
	counters map[string]int64 // /metrics counter deltas over the measured phases
	tasks    []taskRecord
}

// cycleStat is one spec cycle of the closed loop: every spec once, one
// after another, from the first submit to the client seeing the last
// query finish.
type cycleStat struct {
	queries int
	wall    time.Duration
	cpu     time.Duration
}

// runSvcPass runs the queries a pass of dur does. The closed loop hands
// them to a fresh daemon every w.perDaemon queries, which bounds the heap
// the daemon's finished queries retain; the open loop runs on one
// daemon. rec is nil for the untraced pass.
func runSvcPass(in *svcInputs, dur time.Duration, rec *recorder) (*svcPass, error) {
	n := in.w.ops(dur)
	p := &svcPass{closed: in.w.closed}
	if rec != nil {
		p.counters = map[string]int64{}
	}
	per := n
	if in.w.perDaemon > 0 {
		per = max(in.w.cycle, in.w.perDaemon/in.w.cycle*in.w.cycle) // whole cycles
	}
	for first := 0; first < n; {
		count := min(per, n-first)
		stopped, err := p.serve(in, first, count, rec)
		if err != nil {
			return nil, err
		}
		if stopped {
			break
		}
		first += count
	}
	p.refused = n - len(p.outcomes)
	return p, nil
}

// serve starts a daemon, runs queries first..first+count-1 against it
// and stops it. It reports whether the memory guard stopped the load.
func (p *svcPass) serve(in *svcInputs, first, count int, rec *recorder) (bool, error) {
	delay := func(q string) time.Duration { return crowdDelay(in.seed, q, in.w.crowdMin, in.w.crowdMax) }
	d, err := startDaemon(in.truth, delay, rec)
	if err != nil {
		return false, err
	}
	stopped, err := p.drive(d, in, first, count, rec)
	if serr := d.stop(); err == nil {
		err = serr
	}
	_, errs, firstErr, tasks := d.sink.result()
	p.sinkErrs += errs
	if p.sinkFirst == nil {
		p.sinkFirst = firstErr
	}
	p.tasks = append(p.tasks, tasks...)
	return stopped, err
}

// drive registers the dataset — w.setups times on the pass's first
// daemon, once on each later one; every registration is a set-up sample
// — and then drives the queries.
func (p *svcPass) drive(d *daemon, in *svcInputs, first, count int, rec *recorder) (bool, error) {
	reps := 1
	if first == 0 {
		reps = in.w.setups
	}
	for i := 1; i <= reps; i++ {
		body, err := datasetBody(in.data, fmt.Sprintf("%s%d", datasetName, i))
		if err != nil {
			return false, err
		}
		start := time.Now()
		if err := d.api.call(http.MethodPost, "/v1/datasets", body, nil, http.StatusCreated); err != nil {
			return false, fmt.Errorf("set-up: %w", err)
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	var before metricsDump
	var err error
	if rec != nil {
		if before, err = d.counters(); err != nil {
			return false, err
		}
	}
	heap0 := liveHeap()
	cpu0, err := cpuTime()
	if err != nil {
		return false, err
	}
	var stopped bool
	if in.w.closed {
		stopped, err = p.closedLoop(d.api, in, first, count, rec)
	} else {
		stopped = p.openLoop(d.api, in, count, rec)
	}
	if err != nil {
		return false, err
	}
	cpu1, err := cpuTime()
	if err != nil {
		return false, err
	}
	p.cpu += cpu1 - cpu0
	p.heapGrowth += liveHeap() - heap0
	if rec != nil {
		after, err := d.counters()
		if err != nil {
			return false, err
		}
		for k, v := range after.Counters {
			p.counters[k] += v - before.Counters[k]
		}
	}
	return stopped, nil
}

// closedLoop runs queries first..first+count-1, whole spec cycles, one
// after another: the client submits the next query once it sees the last
// one finished. It books each cycle's wall time and CPU, and stops when
// the memory guard trips.
func (p *svcPass) closedLoop(a *api, in *svcInputs, first, count int, rec *recorder) (bool, error) {
	var start time.Time
	var cpu0 time.Duration
	for i := first; i < first+count; i++ {
		if heapBytes() > heapCap {
			return true, nil
		}
		spec := i % len(in.specs)
		var err error
		if spec == 0 {
			if cpu0, err = cpuTime(); err != nil {
				return false, err
			}
			start = time.Now()
		}
		p.outcomes = append(p.outcomes, runQuery(a, in, spec, time.Now(), closedPoll, rec))
		if spec == len(in.specs)-1 {
			wall := time.Since(start)
			cpu1, err := cpuTime()
			if err != nil {
				return false, err
			}
			p.cycles = append(p.cycles, cycleStat{queries: len(in.specs), wall: wall, cpu: cpu1 - cpu0})
		}
	}
	return false, nil
}

// openLoop sends n/2 identical query pairs on the seeded Poisson
// schedule, whether or not earlier queries have finished. It stops
// sending when the memory guard trips.
func (p *svcPass) openLoop(a *api, in *svcInputs, n int, rec *recorder) bool {
	sched := arrivals(in.seed, in.w.perSecond, n/2)
	var mu sync.Mutex
	var wg sync.WaitGroup
	stopped := false
	p.start = time.Now()
	for k, off := range sched {
		due := p.start.Add(off)
		time.Sleep(time.Until(due))
		if late := time.Since(due); late > p.lateMax {
			p.lateMax = late
		}
		if heapBytes() > heapCap {
			stopped = true
			break
		}
		spec := k % len(in.specs)
		for j := 0; j < 2; j++ {
			wg.Add(1)
			//lint:ignore goroutine open-loop arrivals must not wait for earlier replies; the schedule is finite and openLoop waits for every query on wg
			go func() {
				defer wg.Done()
				o := runQuery(a, in, spec, due, openPoll, rec)
				mu.Lock()
				p.outcomes = append(p.outcomes, o)
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return stopped
}

// runQuery submits one query, polls it to a terminal state, and checks
// and scores the result.
func runQuery(a *api, in *svcInputs, spec int, origin time.Time, poll time.Duration, rec *recorder) outcome {
	o := outcome{spec: spec, origin: origin}
	var st service.QueryStatus
	submit := time.Now()
	if err := a.call(http.MethodPost, "/v1/queries", in.specs[spec], &st, http.StatusAccepted); err != nil {
		o.err = err
		return o
	}
	rec.add("admit", st.ID, "query:"+st.ID, submit, time.Now())
	for st.State != service.StateDone && st.State != service.StateFailed {
		if time.Since(submit) > queryTimeout {
			o.err = fmt.Errorf("query %s still %s after %v", st.ID, st.State, queryTimeout)
			return o
		}
		time.Sleep(poll)
		start := time.Now()
		if err := a.call(http.MethodGet, "/v1/queries/"+st.ID, nil, &st, http.StatusOK); err != nil {
			o.err = err
			return o
		}
		rec.add("poll", st.ID, "query:"+st.ID, start, time.Now())
	}
	rec.add("query", st.ID, "", origin, time.Now())
	o.id, o.created = st.ID, st.Created
	if st.Finished != nil {
		o.finished = *st.Finished
	}
	if o.err = in.check(spec, &st); o.err == nil {
		o.f1 = metrics.F1(st.Result.Answers, in.sky)
		o.chargedMu = st.Ledger.ChargedMu
	}
	return o
}

// tally splits the outcomes into the completed ones and the count of
// failed attempts (errors, mismatches and refused queries).
func (p *svcPass) tally() (ok []outcome, attempted, failed int, firstErr error) {
	for _, o := range p.outcomes {
		if o.err != nil {
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		ok = append(ok, o)
	}
	attempted = len(p.outcomes) + p.refused
	failed = attempted - len(ok)
	if p.refused > 0 && firstErr == nil {
		firstErr = fmt.Errorf("memory guard: heap passed %d MiB, %d queries refused", heapCap>>20, p.refused)
	}
	if p.sinkErrs > 0 && firstErr == nil {
		firstErr = fmt.Errorf("crowd: %d answer callbacks failed, first: %v", p.sinkErrs, p.sinkFirst)
	}
	return ok, attempted, failed, firstErr
}

// throughput is completed queries per second. In the closed loop it is
// the median over the spec cycles of a cycle's queries ÷ its wall time;
// in the open loop, the completed queries ÷ the time from the start of
// the measured phase to the last server-side completion.
func (p *svcPass) throughput(ok []outcome) float64 {
	if p.closed {
		rates := make([]float64, len(p.cycles))
		for i, c := range p.cycles {
			rates[i] = float64(c.queries) / c.wall.Seconds()
		}
		return median(rates)
	}
	var last time.Time
	for _, o := range ok {
		if o.finished.After(last) {
			last = o.finished
		}
	}
	return float64(len(ok)) / last.Sub(p.start).Seconds()
}

// cpuPerQuery is the process CPU per completed query in milliseconds: in
// the closed loop the median over the spec cycles, in the open loop over
// the whole measured phase.
func (p *svcPass) cpuPerQuery(ok []outcome) float64 {
	if p.closed {
		per := make([]float64, len(p.cycles))
		for i, c := range p.cycles {
			per[i] = ms(c.cpu) / float64(c.queries)
		}
		return median(per)
	}
	return ms(p.cpu) / float64(len(ok))
}

// latencies returns the sample the latency percentiles are read from:
// one value per completed query. In the closed loop a query counts with
// its spec's median latency over the run. Every spec runs once per cycle,
// so the sample weighs the specs equally, and a spec's latency is the
// median of its repetitions, not whichever one a stall of the machine
// hit. In the open loop, where latency is mostly crowd delay and
// queueing behind other arrivals, each query counts with its own.
func (p *svcPass) latencies(ok []outcome) []float64 {
	lat := make([]float64, len(ok))
	for i, o := range ok {
		lat[i] = o.finished.Sub(o.origin).Seconds()
	}
	if !p.closed {
		return lat
	}
	bySpec := map[int][]float64{}
	for i, o := range ok {
		bySpec[o.spec] = append(bySpec[o.spec], lat[i])
	}
	typical := make(map[int]float64, len(bySpec))
	for spec, xs := range bySpec {
		typical[spec] = median(xs)
	}
	for i, o := range ok {
		lat[i] = typical[o.spec]
	}
	return lat
}

// endToEnd computes the user-facing metrics of an untraced pass.
func (p *svcPass) endToEnd(ok []outcome) (map[string]float64, error) {
	lat := p.latencies(ok)
	f1 := make([]float64, len(ok))
	cost := make([]float64, len(ok))
	for i, o := range ok {
		f1[i] = o.f1
		cost[i] = float64(o.chargedMu) / service.UnitMu
	}
	p50, _, err := percentile(lat, 0.50)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	p95, _, err := percentile(lat, 0.95)
	if err != nil {
		return nil, fmt.Errorf("latency: %w", err)
	}
	return map[string]float64{
		"setup_s":               median(p.setup),
		"latency_p50_s":         p50,
		"latency_p95_s":         p95,
		"throughput_per_s":      p.throughput(ok),
		"cpu_ms_per_op":         p.cpuPerQuery(ok),
		"f1_mean":               mean(f1),
		"cost_units_per_query":  mean(cost),
		"retained_kb_per_query": float64(p.heapGrowth) / 1024 / float64(len(ok)),
	}, nil
}

// perLayer computes the service and crowd layer metrics of a traced
// pass: client and sink spans, /metrics deltas, and the residual the
// replay's machine time and the crowd wait leave unexplained.
func (p *svcPass) perLayer(ok []outcome, rec *recorder, rp *svcReplay) (map[string]float64, error) {
	v := map[string]float64{}
	var err error
	for name, span := range map[string]string{
		"service.admit_ms_p50":    "admit",
		"service.poll_ms_p50":     "poll",
		"service.callback_ms_p50": "callback",
		"crowd.wait_ms_p50":       "task",
	} {
		if v[name], err = rec.p50(span); err != nil {
			return nil, err
		}
	}
	delta := func(name string) float64 { return float64(p.counters[name]) }
	posted, deduped := delta("service.tasks.posted"), delta("service.tasks.deduped")
	if posted+deduped > 0 {
		v["service.dedup_ratio"] = deduped / (posted + deduped)
	}
	v["service.tasks_expired"] = delta("service.tasks.expired")
	hits, misses := delta("cache.hits"), delta("cache.misses")
	if hits+misses > 0 {
		v["prob.cache_hit_ratio"] = hits / (hits + misses)
	}
	v["prob.solved_per_query"] = misses / float64(len(ok))

	waits := crowdWaits(p.tasks)
	resid := make([]float64, len(ok))
	for i, o := range ok {
		server := o.finished.Sub(o.created)
		resid[i] = ms(server - rp.machine[o.spec] - waits[o.id])
	}
	v["service.residual_ms_per_query"] = mean(resid)
	v["loadgen.late_ms_max"] = ms(p.lateMax)
	return v, nil
}

// crowdWaits returns, per query, how long it waited on the crowd: the
// union of the [opened, sent] intervals of the tasks whose answers
// reached it. The daemon's handling of the callback is not crowd time.
// A query that joined a task another query had opened is charged from
// the task's opening, so its wait can be overstated.
func crowdWaits(tasks []taskRecord) map[string]time.Duration {
	type interval struct{ from, to time.Time }
	per := map[string][]interval{}
	for _, t := range tasks {
		for _, q := range t.queries {
			per[q] = append(per[q], interval{t.opened, t.sent})
		}
	}
	out := make(map[string]time.Duration, len(per))
	for q, iv := range per {
		sort.Slice(iv, func(i, j int) bool { return iv[i].from.Before(iv[j].from) })
		var total time.Duration
		cur := iv[0]
		for _, x := range iv[1:] {
			if x.from.After(cur.to) {
				total += cur.to.Sub(cur.from)
				cur = x
				continue
			}
			if x.to.After(cur.to) {
				cur.to = x.to
			}
		}
		out[q] = total + cur.to.Sub(cur.from)
	}
	return out
}
