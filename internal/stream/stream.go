// Package stream answers skyline-probability queries over a sliding
// window of an incomplete data stream. Each Tick absorbs a batch of
// arrivals, retires the objects the window policy expires, and brings
// the per-object skyline probabilities back up to date — incrementally:
// the DynCTable patches only the conditions an edit actually touches,
// the ComponentCache keeps every untouched component's probability, and
// only the dirty conditions re-enter the solver.
//
// The engine also hosts its own correctness anchor. Config.Rebuild
// selects the rebuild-per-tick baseline — a fresh batch c-table and a
// fresh evaluator over the whole window every tick — and the two modes
// produce identical answer sets and probabilities at every tick (the
// equivalence tests assert it across worker counts).
// The sustained-throughput benchmark measures the same pair.
//
// Concurrency follows the repo's single-writer contract: Tick mutates
// the table, the distributions and the cache strictly between the
// parallel Pr(φ) fan-outs it launches, so the trace is deterministic
// and the probabilities bit-identical at any worker count.
package stream

import (
	"fmt"
	"sort"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// DistFunc supplies the prior distribution of one missing cell: a
// normalised slice over the attribute's levels. It must be a pure
// function of (id, attr) — both engine modes call it, at different
// times, and equivalence depends on them seeing the same priors.
type DistFunc func(id, attr, levels int) []float64

// Uniform is the DistFunc assigning every level equal probability — the
// paper's no-preprocessing prior.
func Uniform(_, _, levels int) []float64 {
	u := make([]float64, levels)
	for i := range u {
		u[i] = 1 / float64(levels)
	}
	return u
}

// Window is the eviction policy: an object leaves when the window holds
// more than Count live objects (oldest first) or when its arrival
// timestamp falls Span or more behind the current tick's time. Zero
// disables a bound; both zero means the window only ever grows.
type Window struct {
	// Count is the maximum number of live objects (0 = unbounded).
	Count int
	// Span is the maximum age, in the caller's timestamp units, an
	// object may reach (0 = unbounded). An object inserted at time t is
	// evicted by the first tick with now-t >= Span.
	Span int64
}

// Config assembles a streaming engine.
type Config struct {
	// Attrs is the stream's attribute schema.
	Attrs []dataset.Attribute
	// Window is the eviction policy.
	Window Window
	// TopK bounds TickResult.TopK (0 disables the ranking).
	TopK int
	// Dist supplies missing-cell priors; nil means Uniform.
	Dist DistFunc
	// Workers bounds the Pr(φ) fan-out (<= 0: one per CPU).
	Workers int
	// CacheSize caps the component cache (<= 0: prob.DefaultCacheSize).
	CacheSize int
	// NoCache disables component memoization entirely.
	NoCache bool
	// Rebuild selects the rebuild-per-tick baseline: a fresh batch
	// c-table, evaluator and cache over the whole window every tick.
	// It is the engine's correctness anchor and the benchmark's
	// denominator, not a production mode.
	Rebuild bool
	// Obs, when non-nil, receives the engine's trace events
	// (stream.insert / stream.evict / stream.tick), stamped with the
	// tick number as the logical round.
	Obs *obs.Recorder
	// Metrics, when non-nil, receives the engine's counters.
	Metrics *obs.Registry
}

// Ranked is one entry of a probability ranking.
type Ranked struct {
	// ID is the object's stream id.
	ID int
	// P is Pr(φ) — the object's skyline probability.
	P float64
}

// TickResult reports what one Tick did.
type TickResult struct {
	// Inserted holds the stream ids assigned to the tick's arrivals, in
	// arrival order.
	Inserted []int
	// Evicted holds the ids the window policy retired, ascending.
	Evicted []int
	// Recomputed counts the conditions whose probability was re-solved
	// this tick (every live condition in Rebuild mode).
	Recomputed int
	// InvalidatedEntries counts the cache entries the tick dropped
	// (Evaluator.Drop) because they mention a variable it evicted or, in
	// the crowd loop, renormalised (0 in Rebuild mode, whose cache is
	// per-tick).
	InvalidatedEntries int
	// Answers holds the live ids with Pr(φ) > 0.5 — the paper's answer
	// threshold — ascending.
	Answers []int
	// TopK holds the Config.TopK highest-probability live objects,
	// descending by probability with ties broken by ascending id.
	TopK []Ranked
}

// entry is one live window object: its stream id, arrival time, and (in
// Rebuild mode, which has no DynCTable to hold them) its cells.
type entry struct {
	id    int
	ts    int64
	cells []dataset.Cell
}

// Engine maintains the window. It is single-writer: Tick and the
// accessors must not be called concurrently.
type Engine struct {
	cfg   Config
	queue []entry // live objects, arrival order = ascending id
	tick  int
	last  int64
	begun bool
	// nextID numbers arrivals in Rebuild mode, mirroring the DynCTable's
	// monotonic ids so both modes name objects alike.
	nextID int
	// probs holds Pr(φ) per live id — maintained across ticks
	// incrementally, rebuilt whole under Config.Rebuild.
	probs map[int]float64

	// Incremental mode state; nil under Config.Rebuild. vars lists the
	// live variables in (Obj, Attr) order, which ev.IDs numbers: vars[id]
	// is the variable whose state is ev.Vars[id]. know, set by the crowd
	// loop and nil without one, keeps its intervals by the same ids.
	tbl  *ctable.DynCTable
	ev   *prob.Evaluator
	vars []ctable.Var
	know *ctable.Knowledge

	cTicks, cInserts, cEvicts, cRecomp, cInvalEntries *obs.Counter
}

// New validates the configuration and returns an empty engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Attrs) == 0 {
		return nil, fmt.Errorf("stream: empty attribute schema")
	}
	if cfg.Window.Count < 0 || cfg.Window.Span < 0 {
		return nil, fmt.Errorf("stream: negative window bound %+v", cfg.Window)
	}
	if cfg.Dist == nil {
		cfg.Dist = Uniform
	}
	e := &Engine{cfg: cfg, probs: map[int]float64{}}
	if reg := cfg.Metrics; reg != nil {
		e.cTicks = reg.Counter("stream.ticks")
		e.cInserts = reg.Counter("stream.inserts")
		e.cEvicts = reg.Counter("stream.evicts")
		e.cRecomp = reg.Counter("stream.recomputed")
		e.cInvalEntries = reg.Counter("cache.invalidated.entries")
	}
	if !cfg.Rebuild {
		capacity := cfg.Window.Count
		if capacity <= 0 {
			capacity = 64
		}
		e.tbl = ctable.NewDynCTable(cfg.Attrs, capacity)
		e.ev = &prob.Evaluator{IDs: ctable.NewVarIDs(nil)}
		if !cfg.NoCache {
			e.ev.Cache = prob.NewComponentCache(cfg.CacheSize)
		}
	}
	return e, nil
}

// Len returns the number of live window objects.
func (e *Engine) Len() int { return len(e.queue) }

// Tick advances the stream clock to now (non-decreasing across calls),
// absorbs the arrivals in order, retires what the window policy
// expires, and re-evaluates every condition the edits touched. It
// returns the tick's delta and the refreshed answer set.
func (e *Engine) Tick(now int64, arrivals [][]dataset.Cell) TickResult {
	e.beginTick(now)
	var res TickResult
	if e.cfg.Rebuild {
		res = e.tickRebuild(now, arrivals)
	} else {
		res = e.tickIncremental(now, arrivals)
	}
	e.endTick(len(arrivals), &res)
	return res
}

// beginTick advances the logical clock: the monotonicity check, the tick
// counter, and the recorder's round stamp. Shared by the machine-only
// Tick and the crowd loop's, so both stamp events identically.
func (e *Engine) beginTick(now int64) {
	if e.begun && now < e.last {
		panic(fmt.Sprintf("stream: time went backwards (%d after %d)", now, e.last))
	}
	e.begun = true
	e.last = now
	e.tick++
	e.cfg.Obs.SetRound(e.tick)
	e.cTicks.Add(1)
}

// endTick books the tick's counters and closes it on the trace.
func (e *Engine) endTick(arrivals int, res *TickResult) {
	e.cInserts.Add(int64(len(res.Inserted)))
	e.cEvicts.Add(int64(len(res.Evicted)))
	e.cRecomp.Add(int64(res.Recomputed))
	e.cInvalEntries.Add(int64(res.InvalidatedEntries))
	e.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTick, N: arrivals, M: res.Recomputed})
}

// expire pops the window's expired prefix (the queue is in arrival
// order, so both policies retire from the front) and returns it.
func (e *Engine) expire(now int64, arriving int) []entry {
	keep := len(e.queue) + arriving
	cut := 0
	for cut < len(e.queue) {
		over := e.cfg.Window.Count > 0 && keep-cut > e.cfg.Window.Count
		aged := e.cfg.Window.Span > 0 && now-e.queue[cut].ts >= e.cfg.Window.Span
		if !over && !aged {
			break
		}
		cut++
	}
	expired := e.queue[:cut:cut]
	e.queue = e.queue[cut:]
	return expired
}

func (e *Engine) tickIncremental(now int64, arrivals [][]dataset.Cell) TickResult {
	var res TickResult
	e.evictStep(now, len(arrivals), &res)
	e.insertStep(now, arrivals, &res)
	e.reevalStep(&res)
	e.finish(&res)
	return res
}

// evictStep retires what the window policy expires: the objects leave
// the table, their variables' states and cached probabilities are
// dropped, and so are their cache entries, in one batch. It returns the
// retired variables, valid until the next tick, so the crowd loop can
// retract the knowledge recorded about them.
//
// Stream ids are never reused and expire retires a prefix of the
// arrival-ordered queue, so the k retired variables are the first k of
// vars: dropping them slides every survivor's id down by k, and the
// states in ev.Vars and the intervals in know slide with them.
func (e *Engine) evictStep(now int64, arriving int, res *TickResult) []ctable.Var {
	// Retire first — the policy is applied as if the arrivals were
	// already in, so a count-bound window never transiently exceeds its
	// capacity and both modes expire the same ids.
	k := 0
	for _, en := range e.expire(now, arriving) {
		n := len(e.tbl.Evict(en.id))
		k += n
		delete(e.probs, en.id)
		res.Evicted = append(res.Evicted, en.id)
		e.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamEvict, N: en.id, M: n})
	}
	evicted := e.vars[:k:k]
	if k > 0 {
		clear(e.ev.Vars[:k])
		e.vars, e.ev.Vars = e.vars[k:], e.ev.Vars[k:]
		if e.know != nil {
			e.know.Slide(k)
		}
		e.ev.IDs.Renumber(e.vars)
		// One batched Drop per tick: the retired variables can never
		// recur (ids are never reused), so their cache entries are dead
		// weight the size cap would otherwise evict one live entry at a
		// time.
		res.InvalidatedEntries = e.ev.Drop(func(v ctable.Var) bool { return !e.tbl.Live(v.Obj) })
	}
	return evicted
}

// insertStep absorbs the tick's arrivals: each one enters the table,
// its missing cells get their priors, and it joins the live queue. An
// arrival's id exceeds every live one, so its variables take the
// largest ids.
func (e *Engine) insertStep(now int64, arrivals [][]dataset.Cell, res *TickResult) {
	for _, cells := range arrivals {
		id, vars := e.tbl.Insert(cells)
		for _, v := range vars {
			d := e.cfg.Dist(id, v.Attr, e.cfg.Attrs[v.Attr].Levels)
			e.ev.Vars = append(e.ev.Vars, prob.VarState{Base: d, Dist: d})
		}
		e.vars = append(e.vars, vars...)
		e.queue = append(e.queue, entry{id: id, ts: now})
		res.Inserted = append(res.Inserted, id)
		e.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamInsert, N: id, M: e.tbl.DomSize(id)})
	}
	if len(arrivals) > 0 {
		e.ev.IDs.Renumber(e.vars)
	}
}

// reevalStep re-solves exactly the conditions the tick's edits touched;
// everything else keeps its probability from earlier ticks.
func (e *Engine) reevalStep(res *TickResult) {
	dirty := e.tbl.DrainDirty()
	conds := make([]*ctable.Condition, len(dirty))
	// Laying out a condition reads only the table, so the conditions are
	// built on the pool, each by one worker.
	workers := parallel.Workers(e.cfg.Workers)
	parallel.For(workers, len(dirty), func(_, i int) {
		conds[i] = e.tbl.Cond(dirty[i], nil)
	})
	ps := e.ev.ProbAll(conds, workers)
	for i, id := range dirty {
		e.probs[id] = ps[i]
	}
	res.Recomputed = len(dirty)
}

func (e *Engine) tickRebuild(now int64, arrivals [][]dataset.Cell) TickResult {
	var res TickResult
	for _, en := range e.expire(now, len(arrivals)) {
		res.Evicted = append(res.Evicted, en.id)
		e.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamEvict, N: en.id, M: len(ctable.MissingVars(en.id, en.cells, nil))})
	}
	for _, cells := range arrivals {
		id := e.nextID
		e.nextID++
		e.queue = append(e.queue, entry{id: id, ts: now, cells: append([]dataset.Cell(nil), cells...)})
		res.Inserted = append(res.Inserted, id)
		e.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamInsert, N: id})
	}

	// The whole window, from scratch: batch c-table, fresh distributions
	// keyed by window index, fresh evaluator and cache.
	w := dataset.New(e.cfg.Attrs)
	dists := prob.Dists{}
	for i, en := range e.queue {
		w.MustAppend(dataset.Object{ID: fmt.Sprintf("s%d", en.id), Cells: en.cells})
		for j, c := range en.cells {
			if c.Missing {
				dists[ctable.Var{Obj: i, Attr: j}] = e.cfg.Dist(en.id, j, e.cfg.Attrs[j].Levels)
			}
		}
	}
	ct := ctable.Build(w, ctable.BuildOptions{Alpha: 0, Workers: e.cfg.Workers})
	ev := prob.NewEvaluator(dists)
	if !e.cfg.NoCache {
		ev.Cache = prob.NewComponentCache(e.cfg.CacheSize)
	}
	ps := ev.ProbAll(ct.Conds, parallel.Workers(e.cfg.Workers))
	res.Recomputed = len(ps)
	e.probs = make(map[int]float64, len(e.queue))
	for i, en := range e.queue {
		e.probs[en.id] = ps[i]
	}

	e.finish(&res)
	return res
}

// finish derives the tick's answer set and ranking from the live
// probabilities.
func (e *Engine) finish(res *TickResult) {
	for _, en := range e.queue {
		if e.probs[en.id] > 0.5 {
			res.Answers = append(res.Answers, en.id)
		}
	}
	if e.cfg.TopK > 0 {
		ranked := make([]Ranked, len(e.queue))
		for i, en := range e.queue {
			ranked[i] = Ranked{ID: en.id, P: e.probs[en.id]}
		}
		sort.Slice(ranked, func(a, b int) bool {
			if ranked[a].P > ranked[b].P {
				return true
			}
			if ranked[a].P < ranked[b].P {
				return false
			}
			return ranked[a].ID < ranked[b].ID
		})
		if len(ranked) > e.cfg.TopK {
			ranked = ranked[:e.cfg.TopK]
		}
		res.TopK = ranked
	}
}

// Snapshot returns the live objects' current probabilities, ascending
// by stream id.
func (e *Engine) Snapshot() []Ranked {
	out := make([]Ranked, len(e.queue))
	for i, en := range e.queue {
		out[i] = Ranked{ID: en.id, P: e.probs[en.id]}
	}
	return out
}

// CacheStats snapshots the incremental evaluator's component-cache
// counters (zero in Rebuild mode, whose caches live one tick).
func (e *Engine) CacheStats() prob.CacheStats {
	if e.ev == nil || e.ev.Cache == nil {
		return prob.CacheStats{}
	}
	return e.ev.CacheStats()
}
