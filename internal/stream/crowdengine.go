package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// CrowdConfig assembles a streaming engine with an asynchronous crowd
// loop attached. The embedded Config drives the machine side — window
// policy, priors, solver — exactly as for the machine-only Engine; the
// crowd fields bound how the loop spends its budget against the clock.
type CrowdConfig struct {
	Config

	// Platform receives the loop's task batches. An AsyncPlatform's
	// seeded delays model a straggling crowd; any plain Platform is
	// adapted as a perfectly prompt one (crowd.PostDelayed). Required
	// when Budget is positive.
	Platform crowd.Platform
	// Budget is the total number of unit-priced tasks the run may
	// charge; 0 disables the crowd loop entirely (the engine then ticks
	// identically to the machine-only Engine). The budget is amortised
	// across ticks: each tick posts at most TasksPerTick tasks and
	// reserves a unit per in-flight task, charging only when an answer
	// for a still-live object arrives (charge-on-answer) and refunding
	// reservations for expired tasks and stale answers.
	Budget int
	// TasksPerTick caps the tasks posted per tick (<= 0: 1) — the
	// amortisation grain. A smaller value spreads the budget over more
	// of the stream; a larger one answers questions about the current
	// window faster.
	TasksPerTick int
	// TaskDeadline is how many ticks an unanswered task stays in flight:
	// a task posted at tick T expires at the start of tick
	// T+TaskDeadline+1 and its reservation is refunded (<= 0: 2 ticks).
	// Answers arriving within TaskDeadline ticks are ingested; later
	// ones are dropped as late.
	TaskDeadline int
	// Strategy picks the expression-selection strategy (core.FBS/UBS/
	// HHS); M is the HHS early-stop parameter, required positive for
	// HHS.
	Strategy core.Strategy
	M        int
	// Rng drives selection tie-breaking. Required when Budget is
	// positive; seed it — together with the platform's seed it fully
	// determines the run.
	Rng *rand.Rand
}

// CrowdLedger is crowd.Ledger under its former stream name, which
// e2ebench still uses.
type CrowdLedger = crowd.Ledger

// CrowdTickResult is a TickResult plus the tick's crowd ledger and the
// loop's budget position at tick end.
type CrowdTickResult struct {
	TickResult
	// Crowd is this tick's ledger delta: the running ledger minus its
	// value at the start of the tick (InFlight may be negative).
	Crowd crowd.Ledger
	// InFlight is the number of tasks awaiting an answer at tick end.
	InFlight int
	// BudgetSpent and BudgetReserved are the cumulative charge and the
	// outstanding reservations; Budget-BudgetSpent-BudgetReserved is
	// what the next tick may post.
	BudgetSpent    int
	BudgetReserved int
	// Lagging reports that the crowd fell behind the window this tick —
	// a task expired, an answer arrived stale or late, or a Post failed.
	// The answer set is still served every tick (the machine-only
	// skyline plus whatever answers did land in time); Lagging flags
	// that crowd work was lost to churn.
	Lagging bool
}

// scheduledAnswer is an answer in transit: delivered by the platform at
// post time, held until its arrival tick.
type scheduledAnswer struct {
	ans    crowd.Answer
	posted int
}

// CrowdEngine interleaves the budgeted crowd loop with window ticks.
// Each Tick runs evict → expire-overdue-tasks → ingest-arrived-answers
// → insert → select-and-post → re-evaluate: the machine side is the
// incremental Engine unchanged, and the crowd steps in between absorb
// whatever answers the (possibly lagging) crowd has produced. Every
// answer races the eviction of the object it describes; the loop
// detects the losers — by liveness check first, and structurally by
// Knowledge's Absorb-after-Forget tombstones — discards them, and
// refunds their reservation, so a lagging crowd degrades the run to the
// machine-only skyline instead of corrupting it.
//
// A tick never blocks on the crowd: Post failures are booked and
// retried by natural re-selection next tick, and unanswered tasks
// expire at their deadline. Determinism follows the engine's logical
// clock — the platform's delays, the selection tie-breaks and the trace
// are all pure functions of the seeds, byte-identical at any worker
// count. The evaluator records every narrowing an answer makes, so its
// cache keys follow each renormalisation and selection never reads an
// entry computed under a superseded distribution. The one
// worker-sensitive observable is TickResult.InvalidatedEntries: UBS/HHS
// scoring at workers > 1 precomputes utilities speculatively, warming
// the component cache with entries a sequential run never solves, so
// Drop removes a different entry count. Probabilities, answers, ledgers
// and trace events are unaffected — the counter reports cache
// occupancy, not results.
//
// CrowdEngine is single-writer like Engine: Tick and the accessors must
// not be called concurrently.
type CrowdEngine struct {
	eng *Engine
	cfg CrowdConfig
	opt core.Options // selection knobs for core.Selection.SelectTasks
	sel core.Selection

	know *ctable.Knowledge
	// ab absorbs the answers. Its Touched holds the window ids of the
	// variables the tick's answers mentioned, and its Moved those an
	// ingest moved the bounds of. Both fill after the tick's evictions,
	// so the ids hold until it ends.
	ab *core.Absorption
	// conds caches each live object's simplified condition, refreshed at
	// the re-evaluate step; task selection reads it one step earlier, so
	// a tick's selection sees the window as of the previous
	// re-evaluation.
	conds map[int]*ctable.Condition
	// gone holds the cached ids whose condition mentions a variable
	// evicted this tick, found among the conditions the evictions
	// dirtied. Re-evaluation refreshes them; until then selection skips
	// them.
	gone map[int]bool

	// board holds the in-flight tasks, posted at their tick; the
	// answers in transit wait in mailbox.
	board   *crowd.Board
	mailbox map[int][]scheduledAnswer // arrival tick -> answers, post order

	// totals is the running ledger; Charged and InFlight are the spent
	// and reserved budget units.
	totals crowd.Ledger

	// Per-tick scratch, reused across ticks (Tick is a hot-loop root):
	// the in-flight variable set for selection, the answered-task set of
	// a post round, the tick's stale-id set (filled by retire and
	// reeval), and the ids whose condition may mention a touched
	// variable.
	busyScratch     map[ctable.Var]bool
	answeredScratch map[ctable.Expr]bool
	staleScratch    map[int]bool
	candScratch     []int

	cPosted, cExpired, cAnswers, cStale *obs.Counter
}

// NewCrowd validates the configuration and returns an empty engine.
// The crowd loop needs the incremental engine's delta c-table and window
// numbering, so Config.Rebuild is rejected.
func NewCrowd(cfg CrowdConfig) (*CrowdEngine, error) {
	if cfg.Budget < 0 {
		return nil, fmt.Errorf("stream: negative crowd budget %d", cfg.Budget)
	}
	if cfg.Rebuild {
		return nil, fmt.Errorf("stream: the crowd loop requires the incremental engine (Rebuild is the machine-only baseline)")
	}
	if cfg.Budget > 0 {
		if cfg.Platform == nil {
			return nil, fmt.Errorf("stream: crowd budget %d needs a Platform", cfg.Budget)
		}
		if cfg.Rng == nil {
			return nil, fmt.Errorf("stream: crowd budget %d needs a seeded Rng", cfg.Budget)
		}
		if cfg.Strategy == core.HHS && cfg.M <= 0 {
			return nil, fmt.Errorf("stream: HHS requires a positive M, got %d", cfg.M)
		}
	}
	if cfg.TasksPerTick <= 0 {
		cfg.TasksPerTick = 1
	}
	if cfg.TaskDeadline <= 0 {
		cfg.TaskDeadline = 2
	}
	eng, err := New(cfg.Config)
	if err != nil {
		return nil, err
	}
	c := &CrowdEngine{
		eng: eng,
		cfg: cfg,
		// The knowledge keeps its intervals by window id; the engine
		// slides them at each eviction, with the evaluator's states.
		know:    ctable.NewKnowledge(dataset.New(cfg.Attrs), eng.ev.IDs),
		conds:   map[int]*ctable.Condition{},
		board:   crowd.NewBoard(),
		mailbox: map[int][]scheduledAnswer{},
		gone:    map[int]bool{},

		busyScratch:     map[ctable.Var]bool{},
		answeredScratch: map[ctable.Expr]bool{},
		staleScratch:    map[int]bool{},
	}
	eng.know = c.know
	c.ab = &core.Absorption{Know: c.know, Ev: eng.ev}
	c.opt = core.Options{
		Strategy: cfg.Strategy,
		M:        cfg.M,
		Workers:  parallel.Workers(cfg.Workers),
		NoCache:  cfg.NoCache,
		Rng:      cfg.Rng,
		Trace:    cfg.Obs,
	}
	if reg := cfg.Metrics; reg != nil {
		c.cPosted = reg.Counter("stream.tasks.posted")
		c.cExpired = reg.Counter("stream.tasks.expired")
		c.cAnswers = reg.Counter("stream.tasks.answered")
		c.cStale = reg.Counter("stream.tasks.stale")
	}
	return c, nil
}

// Len returns the number of live window objects.
func (c *CrowdEngine) Len() int { return c.eng.Len() }

// Snapshot returns the live objects' current probabilities, ascending
// by stream id.
func (c *CrowdEngine) Snapshot() []Ranked { return c.eng.Snapshot() }

// CacheStats snapshots the evaluator's component-cache counters.
func (c *CrowdEngine) CacheStats() prob.CacheStats { return c.eng.CacheStats() }

// Totals returns the run's accumulated crowd ledger.
func (c *CrowdEngine) Totals() crowd.Ledger { return c.totals }

// Spent reports the budget units charged for ingested answers so far.
func (c *CrowdEngine) Spent() int { return c.totals.Charged }

// Reserved reports the budget units held by in-flight tasks — refunded
// if they expire or their answer arrives stale, charged otherwise.
func (c *CrowdEngine) Reserved() int { return c.totals.InFlight }

// InFlight returns the number of tasks awaiting an answer.
func (c *CrowdEngine) InFlight() int { return c.board.Len() }

// Tick advances the stream clock to now, runs the machine steps and the
// crowd steps interleaved, and returns the tick's delta, answer set and
// crowd ledger. It never blocks on the platform and never returns an
// error: crowd failures degrade the tick (see CrowdTickResult.Lagging),
// they do not stop the window.
func (c *CrowdEngine) Tick(now int64, arrivals [][]dataset.Cell) CrowdTickResult {
	e := c.eng
	e.beginTick(now)
	var res CrowdTickResult
	start := c.totals
	c.ab.Touched.Reset()

	// Evict, then retract: the knowledge recorded about the retired
	// variables is tombstoned, so a stale answer racing this eviction
	// cannot be absorbed even if every later check were bypassed.
	c.retire(res.Evicted, e.evictStep(now, len(arrivals), &res.TickResult))

	// Retire the tasks posted more than TaskDeadline ticks ago, in
	// posting order, refunding their reservations.
	c.board.Retire(int64(c.eng.tick-c.cfg.TaskDeadline-1), crowd.Expired, c.expired)
	c.ingest(&res.TickResult)

	e.insertStep(now, arrivals, &res.TickResult)

	c.postStep()
	// A prompt crowd (delay 0) answers within the posting tick: drain
	// what just landed so this tick's re-evaluation already reflects it.
	c.ingest(&res.TickResult)

	c.reeval(&res.TickResult)
	e.finish(&res.TickResult)

	res.Crowd = c.totals.Sub(start)
	res.InFlight = c.board.Len()
	res.BudgetSpent = c.totals.Charged
	res.BudgetReserved = c.totals.InFlight
	res.Lagging = res.Crowd.Expired+res.Crowd.Stale+res.Crowd.Late+res.Crowd.PostFailed > 0
	e.endTick(len(arrivals), &res.TickResult)
	return res
}

// expired books one task the tick's expiry retired.
func (c *CrowdEngine) expired(t *crowd.OpenTask) {
	c.cExpired.Add(1)
	c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskExpire, Task: t.Key.Expr.String(), N: int(t.At), M: 1})
}

// ingest drains the answers due at the current tick, in the order they
// were scheduled. Each answer resolves its task and is then absorbed,
// discarded as stale (its object was evicted — refunded), or discarded
// as late (its task already expired — the expiry refunded it).
//
// Tasks are keyed by expression, so an answer from an expired posting
// resolves a later re-posting of the identical question: the question
// is the same, the answer is valid for it, and the still-slower second
// answer is then discarded as late. A badly lagging crowd thus salvages
// some work without double-charging.
//
// A renormalised variable's narrowing is in every cache key that
// mentions it, so the entries keyed on its previous narrowing can never
// be hit again. The drain ends by dropping them, in this single-writer
// gap and before anything is keyed on the new narrowing.
func (c *CrowdEngine) ingest(res *TickResult) {
	due := c.mailbox[c.eng.tick]
	if len(due) == 0 {
		return
	}
	delete(c.mailbox, c.eng.tick)
	for _, sa := range due {
		c.totals.Arrived++
		expr := sa.ans.Task.Expr
		t := c.board.Lookup(crowd.Key{Expr: expr})
		if t == nil {
			c.totals.Late++
			c.cStale.Add(1)
			c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskStale, Task: expr.String(), Note: "late", N: sa.posted})
			continue
		}
		// An evicted object makes the answer stale. The tombstone guard
		// (ErrForgotten) is unreachable behind the liveness check, since
		// ids are never reused, but it is the safety boundary.
		var err error
		live := c.liveExpr(expr)
		if live {
			err = c.ab.Absorb(expr, sa.ans.Rel)
		}
		if !live || errors.Is(err, ctable.ErrForgotten) {
			c.board.Lose(t, crowd.Stale)
			c.cStale.Add(1)
			c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskStale, Task: expr.String(), Note: "evicted", N: sa.posted, M: 1})
			continue
		}
		// Charge-on-answer: the crowd did the work, so conflicting
		// answers cost a unit too — only lost work (expiry, staleness)
		// is refunded.
		c.board.Answer(t, sa.ans.Rel)
		c.cAnswers.Add(1)
		c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskAnswer, Task: expr.String(), Rel: sa.ans.Rel.String(), N: sa.posted})
		if err != nil { // *ConflictError — the only other Absorb failure
			c.totals.Conflicts++
			continue
		}
		c.totals.Absorbed++
	}
	if moved := &c.ab.Moved; len(moved.IDs) > 0 {
		res.InvalidatedEntries += c.eng.ev.Drop(func(v ctable.Var) bool { return moved.HasVar(c.eng.ev.IDs, v) })
		moved.Reset()
	}
}

// retire forgets what the tick's evictions took: the knowledge of the
// evicted variables and the evicted objects' cached conditions. It then
// drains the conditions the evictions dirtied into the tick's stale set
// and collects into gone those whose cached condition mentions an
// evicted object. That finds every such condition: one can mention
// another object's variables only through that object's clause, whose
// retraction marks it dirty, unless it was false and stays false — and
// a condition cached false mentions nothing.
func (c *CrowdEngine) retire(ids []int, vars []ctable.Var) {
	clear(c.gone)
	clear(c.staleScratch)
	c.know.Forget(vars...)
	for _, id := range ids {
		delete(c.conds, id)
	}
	tbl := c.eng.tbl
	for _, id := range tbl.DrainDirty() {
		c.staleScratch[id] = true
		if len(vars) > 0 && c.conds[id].Mentions(func(v ctable.Var) bool { return !tbl.Live(v.Obj) }) {
			c.gone[id] = true
		}
	}
}

// liveExpr reports whether every object the expression mentions is
// still in the window.
func (c *CrowdEngine) liveExpr(e ctable.Expr) bool {
	if !c.eng.tbl.Live(e.X.Obj) {
		return false
	}
	if e.Kind == ctable.VarGTVar && !c.eng.tbl.Live(e.Y.Obj) {
		return false
	}
	return true
}

// postStep selects and posts this tick's task batch: at most
// TasksPerTick tasks, bounded by the unreserved budget, conflict-free
// against the in-flight set. Selection reads the conditions and
// probabilities as of the previous re-evaluation — this tick's arrivals
// become candidates next tick, which is the asynchrony doing its job.
func (c *CrowdEngine) postStep() {
	if c.cfg.Budget <= 0 || c.cfg.Platform == nil {
		return
	}
	k := c.cfg.TasksPerTick
	if spendable := c.cfg.Budget - c.totals.Charged - c.totals.InFlight; k > spendable {
		k = spendable
	}
	if k <= 0 {
		return
	}
	objs := make([]int, 0, len(c.conds))
	for id, cond := range c.conds {
		if _, decided := cond.Decided(); decided {
			continue
		}
		// The cached conditions date from the previous re-evaluation, so
		// one may still mention an object this tick just evicted (retire
		// collected those into gone). Skip such candidates: scoring would
		// re-solve a condition whose evicted variables no longer have
		// distributions, and any answer bought about them would arrive
		// stale anyway. The survivors re-enter selection next tick,
		// refreshed.
		if c.gone[id] {
			continue
		}
		objs = append(objs, id)
	}
	if len(objs) == 0 {
		return
	}
	sort.Ints(objs)

	busy := c.busyScratch
	clear(busy)
	var vbuf []ctable.Var
	for _, t := range c.board.Open() {
		vbuf = t.Key.Expr.Vars(vbuf[:0])
		for _, v := range vbuf {
			busy[v] = true
		}
	}
	tasks := c.sel.SelectTasks(c.opt, objs, func(id int) *ctable.Condition { return c.conds[id] },
		c.eng.ev, c.eng.probs, k, busy)
	// Selection reads last tick's conditions, which may still reference
	// an object this tick just evicted (they refresh at the re-evaluate
	// step, after posting). Asking about it would only buy a guaranteed
	// stale answer — skip rather than waste the budget.
	posted := tasks[:0]
	for _, t := range tasks {
		if c.liveExpr(t.Expr) {
			posted = append(posted, t)
		}
	}
	if len(posted) == 0 {
		return
	}

	answers, err := crowd.PostDelayed(c.cfg.Platform, posted)
	answered := c.answeredScratch
	clear(answered)
	for _, da := range answers {
		answered[da.Task.Expr] = true
	}
	for _, t := range posted {
		if err != nil && !answered[t.Expr] {
			// Round-level failure: tasks without an answer were never
			// listed — nothing to reserve, nothing in flight. The loop
			// re-selects next tick instead of blocking or retrying now.
			continue
		}
		c.board.Post(crowd.Key{Expr: t.Expr}, int64(c.eng.tick), &c.totals, nil)
		c.cPosted.Add(1)
		c.eng.cfg.Obs.Emit(obs.Event{Kind: obs.KindStreamTaskPost, Task: t.Expr.String(), N: c.eng.tick + c.cfg.TaskDeadline, M: 1})
	}
	if err != nil {
		c.totals.PostFailed++
	}
	for _, da := range answers {
		delay := da.Delay
		if delay < 0 {
			delay = 0
		}
		c.mailbox[c.eng.tick+delay] = append(c.mailbox[c.eng.tick+delay],
			scheduledAnswer{ans: da.Answer, posted: c.eng.tick})
	}
}

// reeval refreshes the conditions the tick's edits and answers touched
// and re-solves their probabilities: the table's dirty set (structure
// changes from inserts and evictions) plus every cached condition that
// mentions a variable an absorbed answer touched. Only a variable's own
// object and the objects it possibly dominates can mention it, so those
// are the only ones checked. A touched variable's object is live, since
// ingest checks liveness after the tick's evictions. With an empty
// knowledge the step is exactly the machine engine's — same dirty set,
// no simplification — so a zero-budget run is bit-identical to Engine.
//
// A dirty condition is derived afresh from the table's cells under the
// knowledge (DynCTable.Cond). One stale only because an answer touched
// it is re-simplified from its cached copy over the touched variables
// (Condition.SimplifiedWhere), as core's crowd phase does; that gives
// the same clauses as simplifying the table's condition afresh, because
//   - the copy was simplified under the knowledge of the previous
//     re-evaluation, and since then only this tick's answers, every
//     variable of which is in Touched, and its evictions changed it;
//   - knowledge only narrows: Absorb rejects a conflicting answer — a
//     var-vs-var one the two intervals rule out among them — so a
//     literal decided when the copy was cached is decided the same way
//     now;
//   - Knowledge.Eval reads only a literal's own variables; and
//   - a forgotten variable always belongs to an evicted object — the
//     object itself, whose condition is gone, or a dominator, whose
//     clause retraction marked the condition dirty — so a condition
//     that is not dirty mentions no forgotten variable.
//
// Evaluating the literals on touched variables therefore drops exactly
// the literals and clauses that simplifying the table's condition
// under today's knowledge would.
func (c *CrowdEngine) reeval(res *TickResult) {
	e := c.eng
	// staleSet maps each stale id to whether it is dirty; retire already
	// put the ids the evictions dirtied in it.
	staleSet := c.staleScratch
	for _, id := range e.tbl.DrainDirty() {
		staleSet[id] = true
	}
	for _, id := range c.ab.Touched.IDs {
		v := e.vars[id]
		c.candScratch = e.tbl.Dominatees(v.Obj, append(c.candScratch[:0], v.Obj))
		for _, id := range c.candScratch {
			if _, ok := staleSet[id]; !ok && c.conds[id].Mentions(func(x ctable.Var) bool { return x == v }) {
				staleSet[id] = false
			}
		}
	}
	stale := make([]int, 0, len(staleSet))
	for id := range staleSet {
		stale = append(stale, id)
	}
	sort.Ints(stale)

	conds := make([]*ctable.Condition, len(stale))
	// Simplifying and laying out a condition read only the table, the
	// knowledge and the cached conditions, so the conditions are built on
	// the pool, each by one worker, and cached once the fan-out joins.
	workers := parallel.Workers(e.cfg.Workers)
	parallel.For(workers, len(stale), func(_, i int) {
		if id := stale[i]; staleSet[id] {
			conds[i] = e.tbl.Cond(id, c.know)
		} else {
			conds[i] = c.conds[id].SimplifiedWhere(c.know, &c.ab.Touched)
		}
	})
	for i, id := range stale {
		c.conds[id] = conds[i]
	}
	ps := e.ev.ProbAll(conds, workers)
	for i, id := range stale {
		e.probs[id] = ps[i]
	}
	res.Recomputed = len(stale)
}
