// Package core implements the BayesCrowd framework (paper Algorithm 1):
// the modeling phase builds the c-table, the crowdsourcing phase
// iteratively selects conflict-free task batches under budget and latency
// constraints, posts them, absorbs the answers, and infers the query
// result set.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// Strategy selects which expression of a chosen object's condition to
// crowdsource (paper §6.2).
type Strategy int

const (
	// FBS — frequency-based strategy: the most frequent expression among
	// the conditions of the chosen top-k objects.
	FBS Strategy = iota
	// UBS — utility-based strategy: the expression with the highest
	// marginal utility (expected information gain, Eq. 4-5).
	UBS
	// HHS — hybrid heuristic strategy (Algorithm 4): visit expressions in
	// frequency order, keep the best utility seen, and stop after m
	// consecutive non-improving expressions.
	HHS
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case FBS:
		return "FBS"
	case UBS:
		return "UBS"
	case HHS:
		return "HHS"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a BayesCrowd run. The zero value is not usable; use
// the documented defaults from the paper (§7): NBA α=0.003, B=50, m=15,
// L=5; Synthetic α=0.01, B=1000, m=50, L=10.
type Options struct {
	// Alpha is the Get-CTable pruning threshold (Algorithm 2); <= 0
	// disables pruning.
	Alpha float64
	// Budget is B, the total number of affordable tasks. It must be
	// positive.
	Budget int
	// Latency is L, the maximum number of task-selection rounds; the
	// per-round batch size is ⌈B/L⌉. It must be positive.
	Latency int
	// Strategy picks the expression-selection strategy.
	Strategy Strategy
	// M is the HHS early-stop parameter; ignored by FBS and UBS.
	M int

	// TaskCost prices a task in budget units; nil means every task costs
	// one unit, the paper's fixed-price default. §6.1 notes that variable
	// task difficulty is handled by "accumulating the respective crowd
	// cost of the task one by one", which is exactly what a non-nil
	// TaskCost does: a round's batch is filled until its accumulated
	// price reaches the per-round allowance ⌈B/L⌉, and the budget is
	// charged actual prices. Costs must be positive.
	TaskCost func(crowd.Task) int

	// Net is the Bayesian network over the data attributes used to derive
	// missing-value posteriors. When nil, the preprocessing step learns
	// one from the dataset's complete rows (LearnOpts), falling back to
	// independent empirical marginals when there are too few complete
	// rows.
	Net *bayesnet.Network
	// LearnOpts tunes structure learning when Net is nil.
	LearnOpts bayesnet.LearnOptions
	// Imputer, when non-nil, supplies the missing-value distributions
	// directly, replacing the Bayesian network — e.g. the denoising
	// autoencoder of internal/dae, the alternative §3 names.
	Imputer Imputer
	// MarginalsOnly skips the Bayesian network entirely and models every
	// missing value by its attribute's empirical marginal — the
	// "no correlation" ablation.
	MarginalsOnly bool
	// NoInference disables answer propagation: each crowd answer decides
	// only the literally asked expression instead of narrowing the
	// variable for every condition that mentions it — the
	// answer-propagation ablation.
	NoInference bool

	// ApproxThreshold switches Pr(φ) model counting from exact ADPLL to
	// the ApproxCount estimator for any connected component with more
	// than this many distinct variables (see prob.Options.ApproxThreshold
	// for the determinism and error-bound contract: estimates are seeded
	// from the component fingerprint, so results stay bit-identical at
	// any worker count, and on the seeded benchmark components the
	// estimate stays within 0.05 absolute of the exact probability).
	// 0 — the default — counts every component exactly.
	ApproxThreshold int

	// NoCache disables the connected-component probability cache the
	// crowdsourcing phase keeps across Pr(φ) evaluations (see
	// prob.ComponentCache) — the cache ablation. Cached and uncached runs
	// return bit-identical results; the cache changes only wall-clock
	// time.
	NoCache bool
	// CacheSize bounds the component cache to at most this many memoized
	// components; <= 0 (the zero value) selects prob.DefaultCacheSize.
	// Ignored when NoCache is set.
	CacheSize int

	// Workers bounds the goroutines the framework fans independent work
	// out to: the c-table dominator scan and CNF construction, the
	// per-object Pr(φ) computation and per-round recomputation, and the
	// UBS/HHS utility scoring of candidate expressions. <= 0 (the zero
	// value) means one worker per available CPU (runtime.GOMAXPROCS(0));
	// 1 runs every phase exactly as the sequential implementation did.
	// Results are bit-identical at any setting — each unit of work is
	// computed wholly by one worker and merged in a fixed index order, so
	// parallelism changes only wall-clock time. (The one exception is the
	// Result.Cache hit/miss counters, which depend on scheduling: two
	// workers may both miss a component that one worker would compute
	// once and then hit. The cached values themselves are identical.)
	Workers int

	// MaxRetries bounds how many times a round whose Post call failed
	// outright (a platform outage) is re-posted before the run degrades.
	// Answers that arrived before the failure are kept; only the
	// still-unanswered tasks are retried. 0 — the default — retries
	// nothing: the first failed round degrades the run.
	MaxRetries int
	// RetryBackoff is the base delay of the capped exponential backoff
	// between retries: attempt i sleeps base·2^i, capped at 32·base.
	// Zero (the default) retries immediately — simulated platforms have
	// nothing to wait for; give live marketplaces a real base delay.
	RetryBackoff time.Duration
	// ChargeOnPost charges the budget for every posted task whether or
	// not its answer arrives — the marketplace-bills-on-listing model.
	// The default (false) charges on answer: tasks the platform drops
	// cost nothing and their budget is available for re-posting. With a
	// fault-free platform the two modes charge identically.
	ChargeOnPost bool
	// ReaskConflicts re-posts a task whose answer conflicted with
	// earlier knowledge up to this many times within the same round and
	// absorbs the majority relation of the re-asked answers (the unique
	// top vote; ties stay discarded). Re-asks are charged like any other
	// answered task. 0 — the default — keeps the discard-only policy.
	ReaskConflicts int

	// Trace, when non-nil, receives the run's typed trace events (see
	// internal/obs): round boundaries, entropy rankings, strategy picks,
	// task lifecycle, conflicts, cache invalidations, degradation. Events
	// are emitted only from the run's sequential single-writer sections
	// and are stamped by the Recorder's logical clock, so a seeded run
	// traces byte-identically at any Workers setting. The Recorder is
	// single-writer: do not share one across concurrent runs. nil — the
	// default — disables tracing at zero cost.
	Trace *obs.Recorder
	// Metrics, when non-nil, receives the run's scheduling-dependent
	// numbers as monotonic counters and duration histograms (see
	// internal/obs.Registry): per-round select/prob/round wall times,
	// component-cache hit/miss/eviction/invalidation deltas, and task
	// tallies. These are deliberately kept out of the trace — they vary
	// with goroutine scheduling. nil — the default — disables metrics at
	// zero cost.
	Metrics *obs.Registry

	// Rng drives tie-breaking; defaults to a fixed seed.
	Rng *rand.Rand

	// OnRound, when non-nil, is invoked after each crowdsourcing round
	// with the 1-based round number, the tasks just posted, and the
	// number of still-undecided conditions — a progress hook for CLIs
	// and long-running queries.
	OnRound func(round, tasksPosted, undecided int)
}

func (o Options) withDefaults() (Options, error) {
	if o.Budget <= 0 {
		return o, fmt.Errorf("core: budget %d must be positive", o.Budget)
	}
	if o.Latency <= 0 {
		return o, fmt.Errorf("core: latency %d must be positive", o.Latency)
	}
	if o.Strategy == HHS && o.M <= 0 {
		return o, fmt.Errorf("core: HHS requires a positive m, got %d", o.M)
	}
	if o.MaxRetries < 0 {
		return o, fmt.Errorf("core: MaxRetries %d must be non-negative", o.MaxRetries)
	}
	if o.ReaskConflicts < 0 {
		return o, fmt.Errorf("core: ReaskConflicts %d must be non-negative", o.ReaskConflicts)
	}
	if o.ApproxThreshold < 0 {
		return o, fmt.Errorf("core: ApproxThreshold %d must be non-negative", o.ApproxThreshold)
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	o.Workers = parallel.Workers(o.Workers)
	return o, nil
}

// Result reports the outcome of a BayesCrowd run.
type Result struct {
	// Answers is the query result set: objects whose condition is decided
	// true plus objects whose final satisfaction probability exceeds 0.5
	// (§7).
	Answers []int
	// Probs holds the final Pr(φ(o)) of every object whose condition is
	// still undecided.
	Probs map[int]float64
	// TasksPosted and Rounds are the monetary-cost and latency metrics.
	TasksPosted int
	Rounds      int
	// BudgetSpent is the accumulated task cost in budget units. Under the
	// default charge-on-answer accounting it counts only delivered
	// answers (main rounds plus re-asks), so it equals the number of
	// answers absorbed under unit pricing; with Options.ChargeOnPost it
	// counts posted tasks, answered or not. On a fault-free platform the
	// two coincide and it equals TasksPosted under unit pricing.
	BudgetSpent int
	// ConflictingAnswers counts crowd answers that contradicted earlier
	// knowledge and were discarded (possible with imperfect workers).
	// Answers later rescued by the re-ask policy are still counted here;
	// see ConflictsResolved.
	ConflictingAnswers int
	// ConflictsResolved counts conflicting tasks whose re-asked majority
	// (Options.ReaskConflicts) was absorbed successfully.
	ConflictsResolved int
	// TasksAnswered counts answers delivered in main rounds (re-asks are
	// tracked separately in TasksReasked); TasksPosted-TasksAnswered is
	// the number of answers the platform dropped.
	TasksAnswered int
	// TasksDropped counts posted tasks whose answer never arrived.
	TasksDropped int
	// TasksRequeued counts dropped tasks whose expression was still
	// undecided after the round — they return to the candidate pool and
	// later rounds may select them again.
	TasksRequeued int
	// TasksReasked counts re-posted copies of conflicting tasks.
	TasksReasked int
	// RoundRetries counts failed Post attempts that were retried;
	// FailedRounds counts every Post attempt that returned a round-level
	// error, retried or not (re-ask posts included).
	RoundRetries int
	FailedRounds int
	// BackoffTime is the total time slept between retries.
	BackoffTime time.Duration
	// Degraded reports that the run ended early on a best-effort result:
	// a round kept failing past MaxRetries, or the budget ran out while
	// fault-dropped tasks were still unrecovered. The Answers/Probs are
	// still the exact probabilistic skyline of everything absorbed so
	// far; DegradedReason says what was lost.
	Degraded       bool
	DegradedReason string
	// CTable is the final conditional table after all answers were
	// absorbed, for inspection and reporting. It is read-only: every
	// condition the run's answers did not rewrite is shared with the
	// Model the run started from (and with every other run on it).
	CTable *ctable.CTable
	// Cache reports the component cache's hit/miss/eviction/invalidation
	// counters for the run (all zero under Options.NoCache); like
	// ProbTime, it covers the initial fan-out only when the run built
	// its own model.
	Cache prob.CacheStats
	// ApproxComponents counts the connected components whose probability
	// was estimated by the ApproxCount fallback rather than counted
	// exactly (always zero unless Options.ApproxThreshold is set). Like
	// the cache counters, the count depends on scheduling when the
	// component cache is shared — the estimated values themselves do not.
	ApproxComponents int64
	// SelectTime and ProbTime break the crowdsourcing phase's wall time
	// into its two model-counting bills: cumulative task selection (the
	// UBS/HHS candidate scoring the component cache accelerates) and
	// cumulative Pr(φ) maintenance (the per-round stale recomputation,
	// plus the model's initial fan-out when the run built its own model
	// — RunModel on a shared model leaves it out). They are measured
	// around sequential sections of the round loop, so they are safe at
	// any worker count.
	SelectTime time.Duration
	ProbTime   time.Duration
}
