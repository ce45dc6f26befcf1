package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/prob"
)

// Run executes the full BayesCrowd framework (Algorithm 1) over an
// incomplete dataset: preprocessing (Bayesian-network posteriors),
// modeling (Get-CTable), and the iterative crowdsourcing phase
// (Algorithm 4 for HHS; the same loop with the FBS or UBS selection rule
// otherwise). Crowd answers are obtained from the given platform.
func Run(d *dataset.Dataset, platform crowd.Platform, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}

	base, err := Preprocess(d, opt)
	if err != nil {
		return nil, err
	}
	return runOwnModel(d, BuildModel(d, base, opt), base, platform, opt)
}

// RunWithDists runs the modeling and crowdsourcing phases against
// precomputed missing-value posteriors, skipping preprocessing. The
// benchmark harness uses it to time the framework the way the paper does
// — Bayesian-network training and posterior inference happen offline,
// before the modeling phase — and to reuse one preprocessing pass across
// a parameter sweep.
func RunWithDists(d *dataset.Dataset, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	return runOwnModel(d, BuildModel(d, base, opt), base, platform, opt)
}

// RunCrowdPhase runs the crowdsourcing phase against an already-built
// c-table and precomputed posteriors: it computes the initial Pr(φ) over
// ct's undecided conditions, then runs the rounds. The benchmark harness
// uses it to time the phase apart from the c-table build, so one table
// can serve every repetition — the run simplifies a private copy of the
// condition list and never writes to ct.
func RunCrowdPhase(d *dataset.Dataset, ct *ctable.CTable, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	return runOwnModel(d, modelOf(ct, base, opt), base, platform, opt)
}

// Model is the query-independent half of a run — the paper's modeling
// phase: the c-table (Get-CTable) and the initial Pr(φ) of every
// undecided object. It depends only on the incomplete data, the
// posteriors and the options that shape the table and the solver
// (Alpha, ApproxThreshold), never on the budget, latency, strategy or
// seed, so one model can serve many crowd phases.
//
// A Model is read-only once BuildModel returns it, and safe to share
// between concurrent runs: RunModel simplifies a private copy of the
// condition list (Condition.Simplified copies on change) and keeps its
// per-round probabilities in its own map.
type Model struct {
	// CT is the c-table. Its conditions are shared with every run's
	// Result.CTable until a run's answers rewrite them.
	CT *ctable.CTable
	// Undecided lists the objects whose condition is open, ascending.
	Undecided []int
	// Probs[i] is the initial Pr(φ) of object Undecided[i].
	Probs []float64
	// ApproxComponents counts the components the initial fan-out
	// estimated by the ApproxThreshold fallback (see
	// Result.ApproxComponents).
	ApproxComponents int64
	// ProbTime is the initial fan-out's wall time and Cache its
	// component-cache counters; a run that builds its own model folds
	// both into its Result, a run on a shared model does not.
	ProbTime time.Duration
	Cache    prob.CacheStats

	// varToObjs indexes the undecided objects by the variables their
	// conditions mention, in Undecided order: the runs' map from an
	// answered variable to the conditions it may rewrite.
	varToObjs map[ctable.Var][]int
}

// BuildModel runs the modeling phase: Get-CTable at opt.Alpha, then the
// initial Pr(φ) of every undecided condition on the worker pool. Of opt
// it reads only Alpha, Workers, NoCache, CacheSize and ApproxThreshold,
// plus Metrics, which books the fan-out's wall time and counters; it
// emits nothing to the trace — RunModel replays the model's events at
// the start of each run.
func BuildModel(d *dataset.Dataset, base prob.Dists, opt Options) *Model {
	ct := ctable.Build(d, ctable.BuildOptions{Alpha: opt.Alpha, Workers: opt.Workers})
	return modelOf(ct, base, opt)
}

// modelOf computes the initial Pr(φ) over ct's undecided conditions. The
// fan-out gets its own component cache: its hits come from inside the
// fan-out, so a run starting with a cold cache loses nothing.
func modelOf(ct *ctable.CTable, base prob.Dists, opt Options) *Model {
	m := &Model{CT: ct, Undecided: ct.Undecided(), varToObjs: map[ctable.Var][]int{}}
	conds := make([]*ctable.Condition, len(m.Undecided))
	for i, o := range m.Undecided {
		conds[i] = ct.Conds[o]
		for _, v := range conds[i].Vars() {
			m.varToObjs[v] = append(m.varToObjs[v], o)
		}
	}
	ev := newEvaluator(base, opt)
	//lint:ignore determinism timing observability only: the model's ProbTime reports wall-clock and never feeds a decision
	start := time.Now()
	m.Probs = ev.ProbAll(conds, opt.Workers)
	m.ProbTime = time.Since(start)
	m.ApproxComponents = ev.ApproxComponents()
	if ev.Cache != nil {
		m.Cache = ev.Cache.Stats()
	}
	// The registry books work where it happens: once per model, however
	// many runs share it.
	reg := opt.Metrics
	reg.Histogram("prob.duration").Observe(m.ProbTime)
	reg.Counter("prob.approx.components").Add(m.ApproxComponents)
	reg.Counter("cache.hits").Add(int64(m.Cache.Hits))
	reg.Counter("cache.misses").Add(int64(m.Cache.Misses))
	reg.Counter("cache.evicted").Add(int64(m.Cache.Evicted))
	return m
}

// newEvaluator returns an evaluator over dists with the run's solver
// options and, unless opt.NoCache, a fresh component cache.
func newEvaluator(dists prob.Dists, opt Options) *prob.Evaluator {
	ev := &prob.Evaluator{Dists: dists, Opt: prob.Options{
		NoCache:         opt.NoCache,
		ApproxThreshold: opt.ApproxThreshold,
	}}
	if !opt.NoCache {
		ev.Cache = prob.NewComponentCache(opt.CacheSize)
	}
	return ev
}

// RunModel runs the crowdsourcing phase on a model, which it never
// writes: the run simplifies its own shallow copy of m.CT.Conds and
// keeps its own component cache, so concurrent runs may share m. The
// Result's ProbTime and Cache cover this run's work only — the model's
// initial fan-out is not included — while ApproxComponents counts the
// model's estimated components too, since the answer rests on them.
// The trace is the one a run building its own model emits.
func RunModel(d *dataset.Dataset, m *Model, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	return crowdPhase(d, m, base, platform, opt)
}

// runOwnModel runs a model built for this run alone, so the run also
// owns the model's initial fan-out: its wall time and cache counters
// join the Result.
func runOwnModel(d *dataset.Dataset, m *Model, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	res, err := crowdPhase(d, m, base, platform, opt)
	if err != nil {
		return nil, err
	}
	res.ProbTime += m.ProbTime
	res.Cache.Hits += m.Cache.Hits
	res.Cache.Misses += m.Cache.Misses
	res.Cache.Evicted += m.Cache.Evicted
	return res, nil
}

// crowdPhase runs the crowdsourcing loop on a model and base posteriors.
// Exposed within the package so tests can run it on validated options.
func crowdPhase(d *dataset.Dataset, m *Model, base prob.Dists, platform crowd.Platform, opt Options) (*Result, error) {
	// The recorder and registry are the run's two observability channels:
	// deterministic events to rec (single-writer sections only), and
	// scheduling-dependent numbers — durations, cache deltas — to reg.
	// Both are nil-safe no-ops when disabled.
	rec := opt.Trace
	reg := opt.Metrics
	rec.Emit(obs.Event{Kind: obs.KindRunStart, N: opt.Budget, M: opt.Latency, Note: opt.Strategy.String()})
	var (
		hSelect      = reg.Histogram("select.duration")
		hProb        = reg.Histogram("prob.duration")
		hRound       = reg.Histogram("round.duration")
		cRounds      = reg.Counter("rounds")
		cPosted      = reg.Counter("tasks.posted")
		cAnswered    = reg.Counter("tasks.answered")
		cCacheHits   = reg.Counter("cache.hits")
		cCacheMisses = reg.Counter("cache.misses")
		cCacheEvict  = reg.Counter("cache.evicted")
		cCacheInval  = reg.Counter("cache.invalidated")
		cCacheInvalE = reg.Counter("cache.invalidated.entries")
		cApprox      = reg.Counter("prob.approx.components")
	)
	var prevCache prob.CacheStats
	var prevApprox int64

	know := ctable.NewKnowledge(d)
	know.NoInference = opt.NoInference

	// The run's own c-table: a shallow copy of the model's, whose
	// condition slots the rounds below overwrite with simplified copies.
	// The model's conditions themselves are never written.
	ct := new(ctable.CTable)
	*ct = *m.CT
	ct.Conds = append([]*ctable.Condition(nil), m.CT.Conds...)

	// Effective distributions: the base posteriors, renormalised by what
	// the crowd has revealed so far.
	eff := make(prob.Dists, len(base))
	for v, dist := range base {
		eff[v] = dist
	}
	// The component cache persists across every Pr(φ) evaluation of the
	// run — the UBS/HHS candidate scans and the cross-round stale
	// recomputation — and is invalidated per-variable below, right where
	// crowd answers renormalise distributions.
	ev := newEvaluator(eff, opt)
	// core is the single writer that owns the evaluator; it hands the
	// recorder down so prob's sequential dispatch points (ProbAll,
	// PlanSweeps, Invalidate) can trace their deterministic sizes.
	ev.Obs = rec
	if ev.Cache != nil {
		ev.Cache.Obs = rec
	}

	result := &Result{}
	remaining := opt.Budget
	mu := (opt.Budget + opt.Latency - 1) / opt.Latency // ⌈B/L⌉ tasks per round

	// Satisfaction probabilities are cached across rounds and recomputed
	// only for conditions that mention a variable an answer touched: a
	// 20-task round changes at most 40 variables, so most conditions keep
	// their probability. They start from the model's initial fan-out,
	// whose deterministic sizes the trace records as if this run had
	// computed them.
	rec.Emit(obs.Event{Kind: obs.KindModel, N: len(ct.Conds), M: len(m.Undecided)})
	rec.Emit(obs.Event{Kind: obs.KindProbFanout, N: len(m.Undecided)})
	probs := make(map[int]float64, len(m.Undecided))
	for i, o := range m.Undecided {
		probs[o] = m.Probs[i]
	}

	// Per-round scratch, hoisted out of the loop and cleared in place each
	// round instead of reallocated — the round count times the map sizes
	// adds up at paper scale.
	touched := map[ctable.Var]bool{}
	distChanged := map[ctable.Var]bool{}
	seen := map[int]bool{}
	var changedVars []ctable.Var
	var stale []int
	var staleConds []*ctable.Condition

	// The absorption path is shared with the streaming crowd loop:
	// main-round answers and re-ask majorities both fold into the
	// knowledge through it, marking the touched variables and
	// renormalising the narrowed distributions.
	ab := &Absorption{Know: know, Base: base, Eff: eff, Touched: touched, DistChanged: distChanged}
	absorb := ab.Absorb

	// pendingDropped tracks fault-dropped tasks across rounds: an expression
	// goes in when its answer is lost, comes out when a later answer for it
	// arrives, and anything still undecided when the budget runs out marks
	// the result Degraded (the crowd work the faults cost us).
	pendingDropped := map[ctable.Expr]bool{}

	round := 0
	for remaining > 0 {
		if len(probs) == 0 {
			break // every condition decided
		}

		round++
		rec.SetRound(round)
		var roundStart time.Time
		if hRound != nil {
			//lint:ignore determinism timing observability only: the round-duration histogram reports wall-clock and never feeds a decision
			roundStart = time.Now()
		}

		k := mu
		if remaining < k {
			k = remaining
		}
		rec.Emit(obs.Event{Kind: obs.KindRoundStart, N: k, M: remaining})
		//lint:ignore determinism timing observability only: SelectTime reports wall-clock and never feeds a decision
		selectStart := time.Now()
		tasks := selectBatch(opt, ct, ev, probs, k)
		selectDur := time.Since(selectStart)
		result.SelectTime += selectDur
		hSelect.Observe(selectDur)
		if len(tasks) == 0 {
			break // nothing conflict-free left to ask
		}
		batchCost := 0
		for _, t := range tasks {
			batchCost += taskCost(opt, t)
		}
		if rec.On() {
			for _, t := range tasks {
				rec.Emit(obs.Event{Kind: obs.KindTaskPost, Task: t.Expr.String(), N: taskCost(opt, t)})
			}
		}

		// Post the round, retrying outages with capped exponential backoff.
		// Whatever arrived before a terminal failure is still absorbed; the
		// run then degrades instead of erroring (best-effort semantics).
		answers, postErr := postWithRetry(platform, tasks, opt, result)
		result.TasksPosted += len(tasks)
		result.TasksAnswered += len(answers)
		cPosted.Add(int64(len(tasks)))
		cAnswered.Add(int64(len(answers)))
		if postErr == nil {
			result.Rounds++
			cRounds.Add(1)
		}

		clear(touched)
		clear(distChanged)
		var conflicted []crowd.Task
		var conflictSeen map[ctable.Expr]bool
		for _, a := range answers {
			delete(pendingDropped, a.Task.Expr)
			if rec.On() {
				rec.Emit(obs.Event{Kind: obs.KindTaskAnswer, Task: a.Task.Expr.String(), Rel: a.Rel.String()})
			}
			if err := absorb(a.Task.Expr, a.Rel); err != nil {
				if errors.Is(err, ctable.ErrConflict) {
					result.ConflictingAnswers++
					if rec.On() {
						rec.Emit(obs.Event{Kind: obs.KindTaskConflict, Task: a.Task.Expr.String(), Rel: a.Rel.String()})
					}
					if opt.ReaskConflicts > 0 && !conflictSeen[a.Task.Expr] {
						if conflictSeen == nil {
							conflictSeen = map[ctable.Expr]bool{}
						}
						conflictSeen[a.Task.Expr] = true
						conflicted = append(conflicted, a.Task)
					}
					continue
				}
				return nil, err
			}
		}

		// Budget accounting. Charge-on-answer (the default) pays for
		// delivered answers only — a dropped task costs nothing and its
		// budget stays available for re-posting; ChargeOnPost pays for the
		// listing. Either way the round consumes at least the μ allowance
		// of the latency model (Algorithm 4 line 8: the budget shrinks by
		// at least μ per round even when conflicts leave the batch short,
		// which bounds the number of rounds by the latency constraint L;
		// with variable task prices the round is charged its actual
		// accumulated cost when that exceeds the allowance).
		answeredCost := 0
		answeredExpr := make(map[ctable.Expr]bool, len(answers))
		for _, a := range answers {
			answeredCost += taskCost(opt, a.Task)
			answeredExpr[a.Task.Expr] = true
		}
		charged := answeredCost
		if opt.ChargeOnPost {
			charged = batchCost
		}

		// Re-ask conflicting tasks (within the same logical round): k
		// copies re-posted, the strict majority of whatever comes back
		// absorbed in place of the discarded answer. Re-ask posts share
		// the platform's fault model but are not retried themselves.
		if postErr == nil && opt.ReaskConflicts > 0 {
			for _, t := range conflicted {
				if remaining-charged <= 0 {
					break // no budget left to re-ask with
				}
				copies := make([]crowd.Task, opt.ReaskConflicts)
				for i := range copies {
					copies[i] = t
				}
				if rec.On() {
					rec.Emit(obs.Event{Kind: obs.KindTaskReask, Task: t.Expr.String(), N: len(copies)})
				}
				reAnswers, err := platform.Post(copies)
				result.TasksReasked += len(copies)
				if err != nil {
					result.FailedRounds++
				}
				if opt.ChargeOnPost {
					charged += len(copies) * taskCost(opt, t)
				} else {
					charged += len(reAnswers) * taskCost(opt, t)
				}
				maj, ok := majorityRel(reAnswers)
				if !ok {
					continue // nothing arrived, or no strict majority
				}
				if err := absorb(t.Expr, maj); err != nil {
					if errors.Is(err, ctable.ErrConflict) {
						result.ConflictingAnswers++
						continue
					}
					return nil, err
				}
				result.ConflictsResolved++
				if rec.On() {
					rec.Emit(obs.Event{Kind: obs.KindConflictResolved, Task: t.Expr.String(), Rel: maj.String()})
				}
			}
		}

		result.BudgetSpent += charged
		charge := charged
		if charge < mu {
			charge = mu
		}
		remaining -= charge
		if remaining < 0 {
			remaining = 0
		}

		// Unanswered tasks: count the drop, and re-queue whatever this
		// round's absorbed answers did not incidentally decide — their
		// conditions still hold the expressions, so later rounds may
		// select them again.
		for _, t := range tasks {
			if answeredExpr[t.Expr] {
				continue
			}
			result.TasksDropped++
			if rec.On() {
				rec.Emit(obs.Event{Kind: obs.KindTaskDrop, Task: t.Expr.String()})
			}
			if _, decided := know.Eval(t.Expr); !decided {
				result.TasksRequeued++
				pendingDropped[t.Expr] = true
				if rec.On() {
					rec.Emit(obs.Event{Kind: obs.KindTaskRequeue, Task: t.Expr.String()})
				}
			}
		}

		// A renormalised distribution stales every memoized component
		// mentioning its variable. This is the single-writer gap between
		// fan-outs, exactly where the cache's Invalidate contract wants
		// the call; merely-rewritten conditions need no bump — their
		// components' fingerprints change, so stale entries can't be hit.
		if ev.Cache != nil && len(distChanged) > 0 {
			changedVars = changedVars[:0]
			for v := range distChanged {
				//lint:ignore determinism Invalidate bumps per-variable epochs; the bump set matters, its order does not
				changedVars = append(changedVars, v)
			}
			ev.Cache.Invalidate(changedVars...)
		}

		// Re-simplify exactly the conditions that mention a touched
		// variable, and recompute Pr only where the condition actually
		// changed or a referenced distribution did. Simplification and
		// the eff/Knowledge writes above are single-threaded; only the
		// independent Pr recomputations fan out, and the pool join inside
		// ProbAll publishes this round's mutations to every worker before
		// any solver reads them (the Evaluator's single-writer contract).
		clear(seen)
		stale = stale[:0]
		for v := range touched {
			for _, o := range m.varToObjs[v] {
				if seen[o] {
					continue
				}
				seen[o] = true
				if _, tracked := probs[o]; !tracked {
					continue
				}
				prev := ct.Conds[o]
				cond := prev.Simplified(know)
				ct.Conds[o] = cond
				if _, decided := cond.Decided(); decided {
					delete(probs, o)
					continue
				}
				recompute := cond != prev
				if !recompute && len(distChanged) > 0 {
					for _, cv := range cond.Vars() {
						if distChanged[cv] {
							recompute = true
							break
						}
					}
				}
				if recompute {
					stale = append(stale, o)
				}
			}
		}
		// touched is a map, so the gather order above is nondeterministic;
		// sorting fixes the fan-out schedule (the values themselves are
		// order-independent — one object, one worker, one write).
		sort.Ints(stale)
		staleConds = staleConds[:0]
		for _, o := range stale {
			staleConds = append(staleConds, ct.Conds[o])
		}
		//lint:ignore determinism timing observability only: ProbTime reports wall-clock and never feeds a decision
		probStart := time.Now()
		for i, p := range ev.ProbAll(staleConds, opt.Workers) {
			probs[stale[i]] = p
		}
		roundProbDur := time.Since(probStart)
		result.ProbTime += roundProbDur
		hProb.Observe(roundProbDur)

		// Close the round on both channels: the deterministic charge and
		// undecided count to the trace, the scheduling-dependent cache
		// deltas and wall time to the registry.
		rec.Emit(obs.Event{Kind: obs.KindRoundEnd, N: charged, M: len(probs)})
		if reg != nil && ev.Cache != nil {
			s := ev.Cache.Stats()
			cCacheHits.Add(int64(s.Hits - prevCache.Hits))
			cCacheMisses.Add(int64(s.Misses - prevCache.Misses))
			cCacheEvict.Add(int64(s.Evicted - prevCache.Evicted))
			cCacheInval.Add(int64(s.Invalidated - prevCache.Invalidated))
			cCacheInvalE.Add(int64(s.InvalidatedEntries - prevCache.InvalidatedEntries))
			prevCache = s
		}
		if reg != nil {
			n := ev.ApproxComponents()
			cApprox.Add(n - prevApprox)
			prevApprox = n
		}
		if hRound != nil {
			hRound.Observe(time.Since(roundStart))
		}

		if postErr != nil {
			// Retries exhausted mid-phase: keep everything absorbed so far
			// and return the best-effort probabilistic skyline instead of
			// an error or a hang.
			result.Degraded = true
			result.DegradedReason = fmt.Sprintf(
				"crowd round failed after %d retries: %v", opt.MaxRetries, postErr)
			break
		}
		if opt.OnRound != nil {
			opt.OnRound(result.Rounds, len(tasks), len(probs))
		}
	}

	// Budget gone while fault-dropped tasks were still unrecovered and the
	// result still uncertain: the faults consumed crowd work the query
	// needed. Flag it — the answer set below is still the exact inference
	// over everything that did arrive.
	if !result.Degraded && len(probs) > 0 {
		unrecovered := 0
		for e := range pendingDropped {
			if _, decided := know.Eval(e); !decided {
				unrecovered++
			}
		}
		if unrecovered > 0 {
			result.Degraded = true
			result.DegradedReason = fmt.Sprintf(
				"budget exhausted with %d fault-dropped tasks unrecovered", unrecovered)
		}
	}
	if result.Degraded {
		rec.Emit(obs.Event{Kind: obs.KindDegrade, Note: result.DegradedReason})
	}

	// Final inference: decided-true objects plus undecided ones whose
	// satisfaction probability exceeds 0.5 (§7). The cached probabilities
	// are current — every absorbed answer invalidated its conditions.
	result.Probs = map[int]float64{}
	answers := ct.ResultSet()
	for o, p := range probs {
		result.Probs[o] = p
		if p > 0.5 {
			answers = append(answers, o)
		}
	}
	sort.Ints(answers)
	result.Answers = answers
	result.CTable = ct
	if ev.Cache != nil {
		result.Cache = ev.Cache.Stats()
		if reg != nil {
			// Publish whatever accrued since the last per-round delta
			// (e.g. when the loop exited before a round completed).
			cCacheHits.Add(int64(result.Cache.Hits - prevCache.Hits))
			cCacheMisses.Add(int64(result.Cache.Misses - prevCache.Misses))
			cCacheEvict.Add(int64(result.Cache.Evicted - prevCache.Evicted))
			cCacheInval.Add(int64(result.Cache.Invalidated - prevCache.Invalidated))
			cCacheInvalE.Add(int64(result.Cache.InvalidatedEntries - prevCache.InvalidatedEntries))
		}
	}
	result.ApproxComponents = m.ApproxComponents + ev.ApproxComponents()
	if reg != nil {
		cApprox.Add(ev.ApproxComponents() - prevApprox)
	}
	rec.Emit(obs.Event{Kind: obs.KindRunEnd, N: result.TasksPosted, M: result.Rounds})
	return result, nil
}

// postWithRetry posts one round's batch, retrying round-level failures up
// to Options.MaxRetries with capped exponential backoff (base·2^attempt,
// capped at 32·base). Answers that arrived before a failure are kept and
// only the still-unanswered tasks are re-posted — a retry never asks the
// crowd the same question twice. It returns everything that arrived; the
// error is non-nil only when retries are exhausted with tasks still
// unanswered.
func postWithRetry(platform crowd.Platform, tasks []crowd.Task, opt Options, result *Result) ([]crowd.Answer, error) {
	pending := tasks
	var got []crowd.Answer
	for attempt := 0; ; attempt++ {
		answers, err := platform.Post(pending)
		got = append(got, answers...)
		if err == nil {
			return got, nil
		}
		result.FailedRounds++
		if len(answers) > 0 {
			answered := make(map[ctable.Expr]bool, len(answers))
			for _, a := range answers {
				answered[a.Task.Expr] = true
			}
			var rest []crowd.Task
			for _, t := range pending {
				if !answered[t.Expr] {
					rest = append(rest, t)
				}
			}
			pending = rest
			if len(pending) == 0 {
				return got, nil
			}
		}
		if attempt >= opt.MaxRetries {
			return got, err
		}
		result.RoundRetries++
		if opt.Trace.On() {
			opt.Trace.Emit(obs.Event{Kind: obs.KindRoundRetry, N: attempt, Note: err.Error()})
		}
		if opt.RetryBackoff > 0 {
			shift := attempt
			if shift > 5 {
				shift = 5 // cap the delay at 32× the base
			}
			if opt.Trace.On() {
				// The configured delay, not the measured one — the event
				// stays deterministic; the measured sleep is in
				// Result.BackoffTime.
				opt.Trace.Emit(obs.Event{Kind: obs.KindBackoff, N: attempt, Note: (opt.RetryBackoff << uint(shift)).String()})
			}
			start := time.Now() //lint:ignore determinism retry backoff is wall-clock by design; BackoffTime is observability-only
			time.Sleep(opt.RetryBackoff << uint(shift))
			result.BackoffTime += time.Since(start)
		}
	}
}

// majorityRel aggregates re-asked answers: the uniquely most-voted
// relation among the delivered votes, ok=false when nothing arrived or
// the top vote is tied (a tie is no better evidence than the conflict it
// is meant to settle).
func majorityRel(answers []crowd.Answer) (ctable.Rel, bool) {
	if len(answers) == 0 {
		return 0, false
	}
	counts := [3]int{}
	for _, a := range answers {
		counts[a.Rel]++
	}
	best, tie := ctable.LT, false
	for _, r := range []ctable.Rel{ctable.EQ, ctable.GT} {
		if counts[r] > counts[best] {
			best, tie = r, false
		} else if counts[r] == counts[best] {
			tie = true
		}
	}
	return best, !tie
}
