// Package obs is the framework's stdlib-only observability layer: typed
// trace events stamped by a logical clock, monotonic counters and
// duration histograms in an expvar-style registry, and an opt-in HTTP
// debug endpoint (/metrics + net/http/pprof).
//
// The layer is split along the repo's determinism contract. Trace events
// (Event, emitted through a Recorder into a Sink) carry only quantities
// that are a pure function of the inputs and the seed — round numbers,
// batch sizes, selected tasks, absorbed relations, fan-out sizes — and
// are emitted exclusively from single-writer sequential sections, so a
// seeded run produces a byte-identical trace at any worker count.
// Scheduling-dependent quantities — cache hits and misses, pool fan-out
// tallies, wall-clock durations — go to the Registry as counters and
// histograms instead, and never into the trace. Event timestamps are the
// Recorder's logical (Seq, Round) clock, never wall time, which keeps
// the bayeslint determinism analyzer clean by construction.
//
// Everything is allocation-free when disabled: a nil *Recorder, a nil
// *Registry, a nil *Counter and a nil *Histogram are all safe no-op
// receivers, so instrumented code calls them unconditionally.
package obs

// Kind names a trace event type. The values are stable dotted
// identifiers ("round.start", "task.answer", ...) so traces can be
// filtered with ordinary text tools.
type Kind string

// The event taxonomy. Each kind documents which optional Event fields it
// carries; see DESIGN.md §7 for the emitting package and invariants.
const (
	// KindRunStart opens a run: N = budget B, M = latency L,
	// Note = strategy name.
	KindRunStart Kind = "run.start"
	// KindPreprocess reports the preprocessing model: N = number of
	// missing-value distributions, Note = model kind (net, learned,
	// marginals, marginals-fallback, imputer).
	KindPreprocess Kind = "preprocess"
	// KindModel reports the modeling phase: N = conditions in the
	// c-table, M = undecided after the initial simplification.
	KindModel Kind = "model"
	// KindRoundStart opens a crowdsourcing round: N = per-round task
	// allowance, M = remaining budget.
	KindRoundStart Kind = "round.start"
	// KindEntropyTopK reports one of the round's top-k entropy-ranked
	// objects: Obj = object index, P = entropy of Pr(φ).
	KindEntropyTopK Kind = "entropy.topk"
	// KindStrategyPick reports the expression the strategy chose for an
	// object: Obj = object index, Task = expression.
	KindStrategyPick Kind = "strategy.pick"
	// KindTaskPost reports a task shipped to the crowd: Task =
	// expression, N = its price in budget units.
	KindTaskPost Kind = "task.post"
	// KindTaskAnswer reports a delivered answer: Task = expression,
	// Rel = the relation the crowd asserted.
	KindTaskAnswer Kind = "task.answer"
	// KindTaskConflict reports an answer discarded because it
	// contradicted earlier knowledge: Task = expression, Rel = the
	// conflicting relation.
	KindTaskConflict Kind = "task.conflict"
	// KindTaskReask reports a conflicting task re-posted for a majority
	// vote: Task = expression, N = copies posted.
	KindTaskReask Kind = "task.reask"
	// KindConflictResolved reports a re-asked majority absorbed in place
	// of a discarded answer: Task = expression, Rel = the majority.
	KindConflictResolved Kind = "conflict.resolved"
	// KindTaskDrop reports a posted task whose answer never arrived:
	// Task = expression.
	KindTaskDrop Kind = "task.drop"
	// KindTaskRequeue reports a dropped task returned to the candidate
	// pool (its expression is still undecided): Task = expression.
	KindTaskRequeue Kind = "task.requeue"
	// KindRoundRetry reports a failed Post re-attempted: N = attempt
	// number (0-based), Note = the round error.
	KindRoundRetry Kind = "round.retry"
	// KindBackoff reports the configured sleep before a retry: N =
	// attempt number, Note = the configured delay (base·2^attempt,
	// capped) — the configured value, not the measured one, so the
	// event is deterministic.
	KindBackoff Kind = "backoff"
	// KindFaultOutage reports an injected round outage: N = tasks the
	// failed Post carried.
	KindFaultOutage Kind = "fault.outage"
	// KindFaultDrop reports an injected per-task answer drop: Task =
	// expression.
	KindFaultDrop Kind = "fault.drop"
	// KindFaultSpam reports an injected spammer answer: Task =
	// expression, Rel = the random relation substituted.
	KindFaultSpam Kind = "fault.spam"
	// KindCacheInvalidate reports, for a crowd round with a component
	// cache, the variables the round's answers renormalised: N = their
	// count. Their narrowings are in the cache keys, so the entries
	// keyed on the old ones are never hit again.
	KindCacheInvalidate Kind = "cache.invalidate"
	// KindProbFanout reports a Pr(φ) evaluation fan-out: N = conditions
	// evaluated.
	KindProbFanout Kind = "prob.fanout"
	// KindSweepPlan reports a marginal-sweep plan during candidate
	// scoring: N = candidate expressions, M = sweep variables planned.
	KindSweepPlan Kind = "sweep.plan"
	// KindRoundEnd closes a round: N = budget units charged, M =
	// conditions still undecided.
	KindRoundEnd Kind = "round.end"
	// KindStreamInsert reports one arrival absorbed into the streaming
	// window: N = its stream id, M = |D(o)| on arrival (0 in the
	// rebuild-per-tick baseline, which derives dominators only at tick
	// end).
	KindStreamInsert Kind = "stream.insert"
	// KindStreamEvict reports one object leaving the streaming window:
	// N = its stream id, M = c-table variables retired with it.
	KindStreamEvict Kind = "stream.evict"
	// KindStreamTick closes one streaming tick: N = arrivals absorbed,
	// M = conditions re-evaluated.
	KindStreamTick Kind = "stream.tick"
	// KindStreamTaskPost reports a crowd task posted from the streaming
	// loop: Task = expression, N = the tick it expires after (its
	// deadline), M = the budget units reserved for it.
	KindStreamTaskPost Kind = "stream.task.post"
	// KindStreamTaskExpire reports an in-flight task retired overdue —
	// its answer never arrived within the deadline: Task = expression,
	// N = the tick it was posted, M = the budget units refunded.
	KindStreamTaskExpire Kind = "stream.task.expire"
	// KindStreamTaskAnswer reports a crowd answer ingested by the
	// streaming loop: Task = expression, Rel = the asserted relation,
	// N = the tick the task was posted.
	KindStreamTaskAnswer Kind = "stream.task.answer"
	// KindStreamTaskStale reports an answer discarded without absorption:
	// Task = expression, Note = why ("evicted": the object left the
	// window first; "late": the task already expired). N = the tick the
	// task was posted, M = the budget units refunded (0 for late answers,
	// whose expiry already refunded them).
	KindStreamTaskStale Kind = "stream.task.stale"
	// KindDegrade reports the run ending early on a best-effort result:
	// Note = the degradation reason.
	KindDegrade Kind = "degrade"
	// KindRunEnd closes a run: N = tasks posted, M = rounds completed.
	KindRunEnd Kind = "run.end"
)

// Event is one trace record. Seq and Round are stamped by the Recorder
// (a logical clock — no wall time anywhere in an event); the remaining
// fields are the emitting site's payload, with unused fields left zero.
// Every payload is deterministic under a fixed seed: an Event never
// carries a duration, a cache statistic, or anything else that depends
// on goroutine scheduling.
type Event struct {
	// Seq is the 1-based position of the event in the run's trace.
	Seq uint64
	// Round is the 1-based crowdsourcing round, 0 before the first.
	Round int
	// Kind says what happened; it determines which fields below apply.
	Kind Kind
	// Obj is the object index for per-object events (entropy.topk,
	// strategy.pick).
	Obj int
	// Task is the compact rendering of the task's expression.
	Task string
	// Rel is the rendering of a crowd-asserted relation.
	Rel string
	// N and M are the kind's primary and secondary counts.
	N int
	M int
	// P is the kind's probability or entropy payload.
	P float64
	// Note is the kind's free-text payload (strategy name, error, ...).
	Note string
}

// Sink consumes trace events. Implementations decide persistence: Nop
// drops them, Trace writes JSONL, Aggregator folds them into a Registry,
// Multi tees. Emit must not retain the event past the call. Sinks used
// with a Recorder are called from a single goroutine at a time (the
// Recorder's single-writer contract); Aggregator is additionally safe
// for concurrent use on its own.
type Sink interface {
	Emit(Event)
}

// Nop is the disabled sink: Emit does nothing and performs no
// allocation. It exists for benchmarks and for composing sink lists; a
// nil *Recorder already short-circuits before reaching any sink.
type Nop struct{}

// Emit discards the event.
func (Nop) Emit(Event) {}

// Multi tees every event to each sink in order.
type Multi []Sink

// Emit forwards the event to every sink in slice order.
func (m Multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}
