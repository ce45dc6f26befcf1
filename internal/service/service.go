// Package service turns the single-query, batch, synchronous bayescrowd
// library into a long-running multi-query skyline daemon: shared
// datasets are registered once (preprocessing runs once and its
// posteriors are shared read-only by every query), skyline queries are
// accepted over HTTP and executed concurrently, and the crowd phase is
// an event loop over answer arrivals — crowd answers reach the server
// as POST callbacks instead of a blocking marketplace round-trip.
//
// # Architecture
//
// Each query runs the unchanged core crowd phase (core.RunModel) on
// its own goroutine, so a query served by the daemon returns exactly
// the answer set the library facade would: same options, same seeds,
// same bits. Four service mechanisms wrap that pipeline:
//
//   - The model slot shares the modeling phase. The c-table and the
//     initial Pr(φ) (core.Model) depend only on the dataset and α, so
//     each dataset keeps one model, built by the first query on its α
//     and shared read-only by every later query with the same α. A
//     query with another α replaces the slot, which bounds the daemon's
//     models by its datasets.
//   - The task hub intercepts every crowd round. A posted task joins
//     the cross-query task board (crowd.Board) keyed by (dataset,
//     expression): two queries needing the same missing cell share one
//     outstanding crowd task, and when the answer arrives its unit
//     price is split exactly across the sharers (see crowd.SplitMu);
//     re-ask copies of one task within a round each open their own. The posting query parks — the
//     goroutine blocks, holding no compute token — until every task of
//     its round is resolved by an answer callback, a deadline expiry,
//     or drain.
//   - The fair scheduler bounds concurrent machine work to a fixed
//     number of compute tokens granted in strict FIFO order. A query
//     releases its token whenever it parks on the crowd and re-queues
//     at the tail on wake-up, so one expensive query cannot starve the
//     rest: interleaving is round-robin at compute-step granularity.
//   - Graceful drain stops admissions, fails every open crowd task
//     (refunding its reservations), lets in-flight queries finish or
//     degrade through the library's own best-effort machinery, and
//     flushes per-query traces before the HTTP server shuts down.
//
// Determinism ends at the HTTP boundary: which query's round posts
// first, how tasks interleave at the hub, and when answers arrive are
// all wall-clock effects. Inside the boundary each query is as
// deterministic as a library run — its selection RNG, its trace and
// its result depend only on its seed and the answers it received.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// ErrDraining is the round-level error a parked crowd round resolves
// with when the server drains: the library's postWithRetry treats it
// like a platform outage, keeps every answer that already arrived, and
// degrades the query to its best-effort result.
var ErrDraining = errors.New("service: server draining")

// Config assembles a Server.
type Config struct {
	// Workers is the per-query worker count for the shared parallel
	// pool, and its cap (a query request may lower it); <= 0 means one
	// worker per CPU.
	Workers int
	// MaxConcurrent is the number of compute tokens: how many queries
	// may execute machine work simultaneously. <= 0 selects 2.
	MaxConcurrent int
	// TaskDeadline is how long a posted crowd task stays open before it
	// expires and refunds its reservations; 0 disables automatic expiry
	// (tasks then resolve only by answer or drain). The daemon's expiry
	// ticker enforces it; tests may call ExpireOverdue directly.
	TaskDeadline time.Duration
	// Metrics receives the service's counters and every query's run
	// metrics; nil creates a private registry (served at /metrics).
	Metrics *obs.Registry
	// Sink, when non-nil, is notified of every freshly opened crowd
	// task — the attachment point for the loopback driver. Joined
	// (deduplicated) requests do not re-notify.
	Sink TaskSink
	// TraceLimit caps a per-query trace buffer in bytes; <= 0 selects
	// 4 MiB. A query whose trace would exceed the cap keeps the prefix
	// and records the truncation.
	TraceLimit int
}

// State is a query's lifecycle position.
type State string

// The query lifecycle: Pending (queued for a compute token), Running
// (executing machine work), Waiting (parked on crowd answers), then
// Done or Failed. Running and Waiting alternate once per crowd round.
const (
	StatePending State = "pending"
	StateRunning State = "running"
	StateWaiting State = "waiting"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// datasetEntry is one registered dataset: the immutable data, its
// preprocessed missing-value posteriors (shared read-only by every
// query over it), its model slot, and registration metadata.
type datasetEntry struct {
	name    string
	data    *dataset.Dataset
	base    prob.Dists // read-only after registration; shared by every query
	missing int
	created time.Time

	mu   sync.Mutex
	slot *modelSlot // guarded by mu; the latest model, replaced when α changes
}

// modelSlot is a dataset's shared model. The query that creates the
// slot builds the model; ready closes once m is set, and m is read-only
// from then on.
type modelSlot struct {
	// alpha is the bits of the α the model was built at, the slot's key:
	// α is the only query option that changes core.BuildModel's output,
	// since the daemon never sets an approximation threshold.
	alpha uint64
	ready chan struct{}
	m     *core.Model
}

// query is one accepted skyline query and everything the service knows
// about it.
type query struct {
	id  string
	ds  *datasetEntry
	req QueryRequest
	opt core.Options // the run's options; zeroed under mu when the run ends

	mu       sync.Mutex
	state    State        // guarded by mu
	result   *core.Result // guarded by mu; set once on completion, to retained(res)
	err      error        // guarded by mu; set once on failure
	created  time.Time
	finished time.Time // guarded by mu

	// trace buffers the query's JSONL trace (nil when tracing is off).
	// It is written only by the query goroutine; readers must observe a
	// terminal state under mu first, which orders the reads after every
	// write.
	trace         *bytes.Buffer
	traceTrunc    bool
	ledger        crowd.Ledger // owned by the hub: read and written only under its mutex
	roundsSeen    int          // guarded by mu; progress from OnRound
	lastUndecided int          // guarded by mu
}

// setState publishes a lifecycle transition.
func (q *query) setState(s State) {
	q.mu.Lock()
	q.state = s
	q.mu.Unlock()
}

// snapshot returns the query's state triple for handlers.
func (q *query) snapshot() (State, *core.Result, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state, q.result, q.err
}

// Server is the multi-query skyline service: dataset registry, query
// table, task hub, fair scheduler, and the HTTP surface in http.go.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	sched *scheduler
	hub   *hub

	mu         sync.Mutex
	datasets   map[string]*datasetEntry // guarded by mu
	queries    map[string]*query        // guarded by mu
	order      []string                 // guarded by mu; query ids in admission order
	nextQuery  int                      // guarded by mu
	draining   bool                     // guarded by mu
	expiryStop chan struct{}            // guarded by mu; nil until Start

	wg sync.WaitGroup // one unit per admitted query goroutine

	cQueries, cDone, cFailed, cDegraded *obs.Counter
	cModelBuilds, cModelReuses          *obs.Counter
	hModelBuild, hPreprocess            *obs.Histogram
}

// New validates the configuration and returns a ready Server. Call
// Start to enable the expiry ticker (the daemon does); handlers work
// without it.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 2
	}
	if cfg.TraceLimit <= 0 {
		cfg.TraceLimit = 4 << 20
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		sched:    newScheduler(cfg.MaxConcurrent),
		datasets: map[string]*datasetEntry{},
		queries:  map[string]*query{},

		cQueries:  reg.Counter("service.queries.submitted"),
		cDone:     reg.Counter("service.queries.done"),
		cFailed:   reg.Counter("service.queries.failed"),
		cDegraded: reg.Counter("service.queries.degraded"),

		cModelBuilds: reg.Counter("service.model.builds"),
		cModelReuses: reg.Counter("service.model.reuses"),
		hModelBuild:  reg.Histogram("model.build.duration"),
		hPreprocess:  reg.Histogram("layer.preprocess.duration"),
	}
	s.hub = newHub(reg, cfg.Sink)
	return s
}

// Registry returns the metrics registry the server writes to — the one
// /metrics serves.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start launches the background expiry ticker when Config.TaskDeadline
// is positive. It is idempotent and safe to skip entirely (tests drive
// ExpireOverdue directly).
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.TaskDeadline <= 0 || s.expiryStop != nil || s.draining {
		return
	}
	stop := make(chan struct{})
	s.expiryStop = stop
	interval := s.cfg.TaskDeadline / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	//lint:ignore goroutine the expiry ticker is service-lifetime control flow outside the data-parallel pools; Drain joins it via expiryStop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				s.ExpireOverdue(now.Add(-s.cfg.TaskDeadline))
			}
		}
	}()
}

// ExpireOverdue resolves every open task posted at or before cutoff as
// expired: each sharing query sees the task as dropped (the library
// re-queues it), and every reservation is refunded. It returns the
// number of tasks expired.
func (s *Server) ExpireOverdue(cutoff time.Time) int {
	return s.hub.expireOverdue(cutoff)
}

// MaxLevels caps an attribute's domain size. Preprocessing allocates a
// marginal of levels floats per attribute and, learning a network with
// up to three parents, a count table of levels^4 float64s per node: at
// 32 levels that is 32^4 × 8 B = 8 MiB.
const MaxLevels = 32

// MaxAttrs caps a dataset's attribute count. Structure learning scores
// candidate edges between every pair of attributes, and variable
// elimination runs over one node per attribute, so both grow with it;
// the paper's datasets have 9 and 11.
const MaxAttrs = 32

// MaxRetries caps a query's maxRetries. The daemon re-posts a failed
// round without backoff while holding a compute token, so the cap bounds
// how long one query can spin on a failing crowd.
const MaxRetries = 10

// MaxReaskConflicts caps a query's reaskConflicts. Each copy of a
// re-asked task is a separate open task, so the cap bounds the tasks one
// conflicting answer can open.
const MaxReaskConflicts = 10

// RegisterDataset parses, validates and preprocesses a dataset, then
// publishes it for queries. Preprocessing (Bayesian-network learning
// or the marginals fallback) runs exactly once here; every query over
// the dataset shares the resulting posteriors read-only.
func (s *Server) RegisterDataset(req DatasetRequest) (*DatasetInfo, error) {
	if req.Name == "" {
		return nil, fmt.Errorf("dataset name is required")
	}
	if len(req.Attrs) == 0 || len(req.Attrs) > MaxAttrs {
		return nil, fmt.Errorf("dataset %q has %d attributes, want 1 to %d", req.Name, len(req.Attrs), MaxAttrs)
	}
	attrs := make([]dataset.Attribute, len(req.Attrs))
	for i, a := range req.Attrs {
		if a.Name == "" || a.Levels < 2 || a.Levels > MaxLevels {
			return nil, fmt.Errorf("attribute %d needs a name and 2 to %d levels", i, MaxLevels)
		}
		attrs[i] = dataset.Attribute{Name: a.Name, Levels: a.Levels}
	}
	d := dataset.New(attrs)
	missing := 0
	for r, row := range req.Rows {
		if len(row) != len(attrs) {
			return nil, fmt.Errorf("row %d has %d cells, want %d", r, len(row), len(attrs))
		}
		cells := make([]dataset.Cell, len(row))
		for c, v := range row {
			if v == nil {
				cells[c] = dataset.Unknown()
				missing++
				continue
			}
			cells[c] = dataset.Known(*v)
		}
		if err := d.Append(dataset.Object{ID: fmt.Sprintf("o%d", r+1), Cells: cells}); err != nil {
			return nil, fmt.Errorf("row %d: %v", r, err)
		}
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("dataset %q has no rows", req.Name)
	}

	// Preprocessing fans out on -workers, so it holds a compute token
	// like a query's machine work: -maxconcurrent × -workers stays the
	// daemon's CPU bound.
	s.sched.acquire()
	start := time.Now()
	base, err := core.Preprocess(d, core.Options{
		MarginalsOnly: req.MarginalsOnly,
		Workers:       parallel.Workers(s.cfg.Workers),
		Metrics:       s.reg,
	})
	s.hPreprocess.Observe(time.Since(start))
	s.sched.release()
	if err != nil {
		return nil, fmt.Errorf("preprocess: %v", err)
	}

	e := &datasetEntry{name: req.Name, data: d, base: base, missing: missing, created: time.Now()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if _, dup := s.datasets[req.Name]; dup {
		return nil, fmt.Errorf("dataset %q already registered", req.Name)
	}
	s.datasets[req.Name] = e
	info := e.info()
	return &info, nil
}

// info renders the registry entry for handlers.
func (e *datasetEntry) info() DatasetInfo {
	return DatasetInfo{
		Name:        e.name,
		Objects:     e.data.Len(),
		Attrs:       e.data.NumAttrs(),
		Missing:     e.missing,
		MissingRate: e.data.MissingRate(),
	}
}

// SubmitQuery validates and admits a query, spawns its runner
// goroutine, and returns its id immediately; progress is polled via
// QueryStatus (GET /v1/queries/{id}).
func (s *Server) SubmitQuery(req QueryRequest) (*QueryStatus, error) {
	strategy, err := parseStrategy(req.Strategy)
	if err != nil {
		return nil, err
	}
	if req.Budget <= 0 {
		return nil, fmt.Errorf("budget %d must be positive", req.Budget)
	}
	if req.Latency <= 0 {
		return nil, fmt.Errorf("latency %d must be positive", req.Latency)
	}
	if strategy == core.HHS && req.M <= 0 {
		return nil, fmt.Errorf("strategy HHS requires a positive m, got %d", req.M)
	}
	if req.MaxRetries < 0 || req.MaxRetries > MaxRetries {
		return nil, fmt.Errorf("maxRetries %d outside [0,%d]", req.MaxRetries, MaxRetries)
	}
	if req.ReaskConflicts < 0 || req.ReaskConflicts > MaxReaskConflicts {
		return nil, fmt.Errorf("reaskConflicts %d outside [0,%d]", req.ReaskConflicts, MaxReaskConflicts)
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	ds := s.datasets[req.Dataset]
	if ds == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("dataset %q not registered", req.Dataset)
	}
	s.nextQuery++
	q := &query{
		id:      fmt.Sprintf("q%d", s.nextQuery),
		ds:      ds,
		req:     req,
		state:   StatePending,
		created: time.Now(),
	}
	// A query may use fewer workers than the daemon's default, never
	// more: -maxconcurrent × -workers bounds the daemon's CPU fan-out.
	// Results are bit-identical at any worker count.
	workers := parallel.Workers(s.cfg.Workers)
	if req.Workers > 0 && req.Workers < workers {
		workers = req.Workers
	}
	q.opt = core.Options{
		Alpha:          req.Alpha,
		Budget:         req.Budget,
		Latency:        req.Latency,
		Strategy:       strategy,
		M:              req.M,
		Workers:        workers,
		MaxRetries:     req.MaxRetries,
		ChargeOnPost:   req.ChargeOnPost,
		ReaskConflicts: req.ReaskConflicts,
		NoCache:        req.NoCache,
		Metrics:        s.reg,
		OnRound: func(round, _, undecided int) {
			q.mu.Lock()
			q.roundsSeen = round
			q.lastUndecided = undecided
			q.mu.Unlock()
		},
	}
	if req.Seed != 0 {
		q.opt.Rng = rand.New(rand.NewSource(req.Seed))
	}
	if req.Trace {
		q.trace = &bytes.Buffer{}
	}
	s.queries[q.id] = q
	s.order = append(s.order, q.id)
	s.wg.Add(1)
	s.mu.Unlock()

	s.cQueries.Add(1)
	//lint:ignore goroutine one runner goroutine per admitted query is the service's unit of concurrency; it is joined by Drain via the WaitGroup added to above
	go s.runQuery(q)
	st := s.status(q)
	return &st, nil
}

// runQuery executes one admitted query end to end: acquire a compute
// token, fetch or build the dataset's model, run the unchanged library
// crowd phase against the hub-backed platform, flush the trace, publish
// the terminal state.
func (s *Server) runQuery(q *query) {
	defer s.wg.Done()
	s.sched.acquire()
	q.setState(StateRunning)
	defer s.sched.release()

	opt := q.opt
	var sink *obs.Trace
	if q.trace != nil {
		sink = obs.NewTrace(&boundedWriter{buf: q.trace, limit: s.cfg.TraceLimit, q: q})
		opt.Trace = obs.NewRecorder(sink)
	}
	res, err := core.RunModel(q.ds.data, s.model(q), q.ds.base, &hubPlatform{s: s, q: q}, opt)
	flushFailed := false
	if sink != nil {
		// Flush before the terminal state publishes: readers gate on the
		// state under q.mu, so every trace byte happens-before their read.
		flushFailed = sink.Flush() != nil
	}

	q.mu.Lock()
	// Nothing reads the run options once the run is over. Dropping them
	// releases the request's rand source (about 4.9 KB) and the OnRound
	// closure, which the query table would otherwise keep for the
	// daemon's lifetime.
	q.opt = core.Options{}
	if flushFailed {
		q.traceTrunc = true
	}
	q.finished = time.Now()
	if err != nil {
		q.state = StateFailed
		q.err = err
	} else {
		q.state = StateDone
		q.result = retained(res)
	}
	q.mu.Unlock()
	if err != nil {
		s.cFailed.Add(1)
		return
	}
	s.cDone.Add(1)
	if res.Degraded {
		s.cDegraded.Add(1)
	}
}

// retained is what a finished query keeps of its run's result: the
// fields its status reports. Dropping the rest releases the run's
// c-table — its copy of the condition list and every condition it
// rewrote — as soon as the query finishes.
func retained(res *core.Result) *core.Result {
	return &core.Result{
		Answers:        res.Answers,
		Probs:          res.Probs,
		TasksPosted:    res.TasksPosted,
		Rounds:         res.Rounds,
		BudgetSpent:    res.BudgetSpent,
		Degraded:       res.Degraded,
		DegradedReason: res.DegradedReason,
	}
}

// model returns the dataset model q runs on. The first query at an α
// builds it under its own compute token; a query that finds that build
// still running gives its token back until the build is done, so
// concurrent first queries share one build. A different α replaces
// the slot: queries already holding the old model keep it, and with α
// values that keep alternating every query builds, as without sharing.
func (s *Server) model(q *query) *core.Model {
	e := q.ds
	alpha := math.Float64bits(q.opt.Alpha)
	e.mu.Lock()
	slot := e.slot
	if slot != nil && slot.alpha == alpha {
		e.mu.Unlock()
		select {
		case <-slot.ready:
		default:
			s.sched.release()
			<-slot.ready
			s.sched.acquire()
		}
		s.cModelReuses.Add(1)
		return slot.m
	}
	slot = &modelSlot{alpha: alpha, ready: make(chan struct{})}
	e.slot = slot
	e.mu.Unlock()

	// The model always keeps a cache: it serves every later query on the
	// slot, and a noCache query runs without it (core.RunModel).
	opt := q.opt
	opt.NoCache = false
	start := time.Now()
	slot.m = core.BuildModel(e.data, e.base, opt)
	s.hModelBuild.Observe(time.Since(start))
	s.cModelBuilds.Add(1)
	close(slot.ready)
	return slot.m
}

// boundedWriter caps a query's trace buffer: writes beyond the limit
// are dropped and the truncation recorded, so a chatty query cannot
// grow the daemon's memory without bound.
type boundedWriter struct {
	buf   *bytes.Buffer
	limit int
	q     *query
}

// Write appends to the buffer up to the cap.
func (w *boundedWriter) Write(p []byte) (int, error) {
	if w.buf.Len()+len(p) > w.limit {
		w.q.mu.Lock()
		w.q.traceTrunc = true
		w.q.mu.Unlock()
		return len(p), nil // swallow: truncation is recorded, the run goes on
	}
	return w.buf.Write(p)
}

// hubPlatform adapts the task hub to the library's crowd.Platform: one
// Post call is one parked crowd round. It releases the query's compute
// token while parked and re-acquires it (FIFO, at the tail) before
// returning, which is what makes the scheduler fair across rounds.
type hubPlatform struct {
	s *Server
	q *query
}

// Post registers the round's tasks with the hub (deduplicating against
// every other query's open tasks), parks until all of them resolve,
// and returns the answers in posted-task order — exactly the order a
// synchronous simulated platform would have returned them, which keeps
// the query's absorption sequence, and therefore its result, identical
// to a library run.
func (p *hubPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	rw, fresh, err := p.s.hub.register(p.q, tasks)
	if err != nil {
		return nil, err
	}
	p.s.hub.notify(fresh)
	p.q.setState(StateWaiting)
	p.s.sched.release()
	<-rw.done
	p.s.sched.acquire()
	p.q.setState(StateRunning)
	return rw.collect()
}

// Drain gracefully winds the service down: admissions stop (new
// datasets and queries are refused with ErrDraining), every open crowd
// task fails over to the sharing queries with ErrDraining (reservations
// refunded — the library keeps the answers that already arrived and
// degrades each query to its best-effort result), the expiry ticker
// stops, and Drain blocks until every query goroutine has finished or
// ctx expires. The HTTP server itself is shut down by the caller after
// Drain returns, so status endpoints stay readable throughout.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	stop := s.expiryStop
	s.expiryStop = nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}

	s.hub.drain()

	done := make(chan struct{})
	//lint:ignore goroutine bridging WaitGroup.Wait to a select arm; the goroutine exits as soon as the last query finishes
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out with queries still running")
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// parseStrategy maps the wire strategy names onto core's constants.
func parseStrategy(name string) (core.Strategy, error) {
	switch name {
	case "FBS":
		return core.FBS, nil
	case "UBS", "":
		return core.UBS, nil
	case "HHS":
		return core.HHS, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q (want FBS, UBS or HHS)", name)
	}
}
