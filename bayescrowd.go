// Package bayescrowd answers skyline queries over incomplete data with
// crowdsourcing, reproducing the BayesCrowd framework of Miao, Gao, Guo,
// Chen, Yin and Li ("Answering Skyline Queries over Incomplete Data with
// Crowdsourcing", ICDE 2020).
//
// # Overview
//
// A skyline query returns the objects not dominated by any other object.
// When attribute values are missing, the true skyline cannot be computed
// by machine alone; BayesCrowd asks crowd workers targeted micro-questions
// about individual missing values instead, prioritising the questions that
// reduce result uncertainty the most.
//
// The pipeline has three stages:
//
//  1. Preprocessing — a Bayesian network over the attributes (learned from
//     the data or supplied) yields a posterior distribution for every
//     missing cell given the object's observed cells.
//  2. Modeling — every object receives a c-table condition φ(o) in CNF: o
//     is a skyline answer iff φ(o) holds. Conditions are built from
//     dominator sets with the Get-CTable algorithm.
//  3. Crowdsourcing — under a task budget B and a latency bound L (rounds),
//     batches of conflict-free tasks are selected by entropy plus one of
//     three strategies (FBS, UBS, HHS), posted, and their answers are
//     folded back into the conditions until the budget is spent. The
//     satisfaction probabilities Pr(φ(o)) that drive selection are
//     computed with the ADPLL weighted model counter.
//
// # Quick start
//
//	incomplete := bayescrowd.SampleMovies()          // 5 movies, 5 raters
//	truth := ...                                     // complete data the
//	                                                 // simulated crowd consults
//	platform := bayescrowd.NewSimulatedCrowd(truth, 1.0, nil)
//	res, err := bayescrowd.Run(incomplete, platform, bayescrowd.Options{
//	    Alpha:    0.01,
//	    Budget:   50,
//	    Latency:  5,
//	    Strategy: bayescrowd.HHS,
//	    M:        15,
//	})
//
// res.Answers holds the indices of the answer objects; res.TasksPosted and
// res.Rounds report the monetary cost and latency actually spent.
//
// Any service satisfying the Platform interface can stand in for the
// simulated crowd to drive a real marketplace.
package bayescrowd

import (
	"io"
	"math/rand"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dae"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/metrics"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
	"bayescrowd/internal/skyline"
)

// Dataset is a collection of objects over discrete-valued attributes in
// which any cell may be missing.
type Dataset = dataset.Dataset

// Attribute describes one column: a name and the size of its discrete
// domain (codes 0..Levels-1, larger is better).
type Attribute = dataset.Attribute

// Object is one row: an identifier and one cell per attribute.
type Object = dataset.Object

// Cell is one attribute value; Missing marks it unknown.
type Cell = dataset.Cell

// NewDataset returns an empty dataset over the given schema.
func NewDataset(attrs []Attribute) *Dataset { return dataset.New(attrs) }

// Known returns a present cell holding v.
func Known(v int) Cell { return dataset.Known(v) }

// Unknown returns a missing cell.
func Unknown() Cell { return dataset.Unknown() }

// ReadCSV parses a dataset from the package's CSV format ("?" marks a
// missing cell; see WriteCSV).
func ReadCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// WriteCSV writes a dataset in the package's CSV format.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// SampleMovies returns the paper's running example: five movies rated by
// five audiences with five ratings missing (Table 1).
func SampleMovies() *Dataset { return dataset.SampleMovies() }

// RawTable is a continuous-valued table prior to discretization; NaN
// marks a missing value.
type RawTable = dataset.RawTable

// Discretizer maps raw continuous values to discrete codes; the paper's
// preprocessing partitions continuous domains this way (§3).
type Discretizer = dataset.Discretizer

// EqualWidth returns a discretizer splitting [min, max] into equally wide
// bins.
func EqualWidth(min, max float64, levels int) Discretizer {
	return dataset.EqualWidth(min, max, levels)
}

// EqualFrequency returns a quantile discretizer whose bins hold roughly
// equal shares of the sample.
func EqualFrequency(sample []float64, levels int) Discretizer {
	return dataset.EqualFrequency(sample, levels)
}

// Discretize converts a raw continuous table into a Dataset using one
// discretizer per column; NaN cells become missing cells.
func Discretize(raw *RawTable, discs []Discretizer) (*Dataset, error) {
	return dataset.Discretize(raw, discs)
}

// InvertAttrs returns a copy of the dataset with the named attributes'
// codes flipped, turning smaller-is-better columns into the canonical
// larger-is-better orientation dominance expects. Apply the same
// inversion to the ground truth a simulated crowd consults.
func InvertAttrs(d *Dataset, attrIdx ...int) *Dataset { return d.InvertAttrs(attrIdx...) }

// Strategy selects how the crowdsourcing phase picks the expression to ask
// about for each chosen object.
type Strategy = core.Strategy

// Task-selection strategies (paper §6.2): FBS is fastest, UBS is most
// accurate, HHS trades between them via its parameter M.
const (
	FBS = core.FBS
	UBS = core.UBS
	HHS = core.HHS
)

// Options configures a BayesCrowd run; see the field documentation in the
// core package. Paper defaults: NBA α=0.003, B=50, m=15, L=5; Synthetic
// α=0.01, B=1000, m=50, L=10.
type Options = core.Options

// Result reports the answer set, per-object probabilities, and the cost
// metrics (tasks = money, rounds = latency) of a run.
type Result = core.Result

// CacheStats reports a run's own hit/miss/eviction counters on its
// model's component probability cache (Result.Cache); see the prob
// package for the cache itself.
type CacheStats = prob.CacheStats

// Platform is the crowdsourcing marketplace interface: one Post call is
// one latency round. The contract is fallible — Post may deliver a
// partial answer set (dropped tasks) and/or a round-level error (an
// outage); the framework re-queues, retries with backoff, and degrades
// gracefully (see Options.MaxRetries and Result.Degraded).
type Platform = crowd.Platform

// Task is one crowd micro-question (a triple-choice comparison).
type Task = crowd.Task

// Answer is a majority-voted task response.
type Answer = crowd.Answer

// IsTwoVariableTask reports whether the task compares two unknown cells
// with each other rather than one unknown cell against a constant —
// typically the harder (and, with Options.TaskCost, pricier) kind of
// question.
func IsTwoVariableTask(t Task) bool { return t.Expr.Kind == ctable.VarGTVar }

// Rel is the three-way relation a crowd answer asserts between a task's
// two operands.
type Rel = ctable.Rel

// The three possible task answers: the left operand is smaller than,
// equal to, or larger than the right operand.
const (
	LessThan   = ctable.LT
	EqualTo    = ctable.EQ
	LargerThan = ctable.GT
)

// SimulatedCrowd is a Platform that answers from a hidden complete
// dataset with configurable worker accuracy (three workers per task,
// majority voting).
type SimulatedCrowd = crowd.Simulated

// NewSimulatedCrowd returns a simulated platform over the given ground
// truth. accuracy is the per-worker probability of a correct answer; rng
// may be nil when accuracy is 1.
func NewSimulatedCrowd(truth *Dataset, accuracy float64, rng *rand.Rand) *SimulatedCrowd {
	return crowd.NewSimulated(truth, accuracy, rng)
}

// BayesNet is a discrete Bayesian network over the dataset's attributes:
// the preprocessing model that turns observed cells into posteriors for
// the missing ones. Networks serialise with WriteJSON/ReadBayesNet and
// render with WriteDOT.
type BayesNet = bayesnet.Network

// BayesNode is one variable of a BayesNet.
type BayesNode = bayesnet.Node

// LearnBayesNet trains a network on the dataset's complete rows by BIC
// hill climbing (the Banjo-style structure search) and maximum-likelihood
// parameter fitting. Assign the result to Options.Net to reuse it across
// queries. It fails when fewer than 50 complete rows exist.
func LearnBayesNet(d *Dataset) (*BayesNet, error) {
	return core.LearnNetwork(d, bayesnet.LearnOptions{})
}

// ReadBayesNet parses a network serialised with BayesNet.WriteJSON.
func ReadBayesNet(r io.Reader) (*BayesNet, error) { return bayesnet.ReadJSON(r) }

// Imputer supplies missing-value distributions, replacing the Bayesian
// network as the preprocessing model (Options.Imputer).
type Imputer = core.Imputer

// Autoencoder is the denoising-autoencoder imputer — the alternative
// preprocessing model the paper names in §3.
type Autoencoder = dae.Model

// TrainAutoencoder fits a denoising autoencoder on the dataset's complete
// rows with default hyperparameters; assign the result to Options.Imputer.
func TrainAutoencoder(d *Dataset) (*Autoencoder, error) {
	return dae.Train(d, dae.Options{})
}

// UnreliableCrowd wraps any Platform with seeded, deterministic fault
// injection — task drops, round outages, spammer answers — the failure
// modes of a live marketplace. The framework's retry/backoff, re-queue
// and degradation machinery (Options.MaxRetries, Options.ReaskConflicts,
// Result.Degraded) is exercised against it.
type UnreliableCrowd = crowd.Unreliable

// NewUnreliableCrowd wraps inner: each answer is dropped with dropProb,
// each round fails outright with outageProb, and each surviving answer is
// replaced by a random relation with spamProb. rng is required when any
// probability is positive; a fixed seed reproduces the exact fault
// schedule.
func NewUnreliableCrowd(inner Platform, dropProb, outageProb, spamProb float64, rng *rand.Rand) *UnreliableCrowd {
	return crowd.NewUnreliable(inner, dropProb, outageProb, spamProb, rng)
}

// ErrOutage is the round-level error an UnreliableCrowd returns when the
// whole platform is down for a round.
var ErrOutage = crowd.ErrOutage

// WorkerPool is a Platform over a heterogeneous worker population with
// per-worker accuracies and an AMT-style recruitment threshold
// (MinAccuracy).
type WorkerPool = crowd.Pool

// NewWorkerPool builds a pool of n simulated workers whose accuracies are
// drawn uniformly from [minAcc, maxAcc]; three distinct workers vote on
// each task. Set MinAccuracy on the returned pool to recruit selectively.
func NewWorkerPool(truth *Dataset, n int, minAcc, maxAcc float64, rng *rand.Rand) *WorkerPool {
	return crowd.NewPool(truth, n, minAcc, maxAcc, rng)
}

// Run executes the full BayesCrowd pipeline over an incomplete dataset,
// obtaining crowd answers from the platform.
func Run(d *Dataset, platform Platform, opt Options) (*Result, error) {
	return core.Run(d, platform, opt)
}

// Skyline returns the skyline of a complete dataset (the evaluation
// ground truth), as ascending object indices.
func Skyline(d *Dataset) []int { return skyline.BNL(d) }

// Conditions runs only the modeling phase — Get-CTable with the given α
// threshold (≤ 0 disables pruning) — and returns every object's c-table
// condition rendered in the paper's notation ("true", "false", or a CNF
// like "Var(o5,a2) < 2 ∨ Var(o5,a3) < 3"). Useful for inspecting what a
// query would need to ask before spending any budget.
func Conditions(d *Dataset, alpha float64) []string {
	ct := ctable.Build(d, ctable.BuildOptions{Alpha: alpha})
	out := make([]string, len(ct.Conds))
	for i, c := range ct.Conds {
		out[i] = c.String()
	}
	return out
}

// TraceEvent is one typed, deterministic record of a run's trace: what
// happened (Kind), when on the logical clock (Seq, Round), and the
// kind's payload fields. See the obs package for the event taxonomy.
type TraceEvent = obs.Event

// TraceSink consumes trace events; implementations decide persistence
// (JSONL file, in-memory aggregation, nothing).
type TraceSink = obs.Sink

// TraceRecorder stamps trace events with the run's logical clock and
// forwards them to a sink. Assign one to Options.Trace; a nil recorder
// disables tracing at zero cost. One recorder serves one run at a time.
type TraceRecorder = obs.Recorder

// MetricsRegistry collects a run's scheduling-dependent numbers —
// monotonic counters and duration histograms. Assign one to
// Options.Metrics and dump it with WriteJSON, or serve it over HTTP with
// ServeObs.
type MetricsRegistry = obs.Registry

// NewTraceRecorder wraps the sink in a fresh logical clock; a nil sink
// yields the disabled (nil) recorder.
func NewTraceRecorder(s TraceSink) *TraceRecorder { return obs.NewRecorder(s) }

// JSONLTrace is a sink writing one canonical JSON object per event —
// the format behind cmd/bayescrowd's -trace flag.
type JSONLTrace = obs.Trace

// NewJSONLTrace returns a sink writing one JSON object per event to w.
// The encoding is canonical, so a seeded run's trace is byte-identical
// at any Options.Workers setting. Call Flush before closing w.
func NewJSONLTrace(w io.Writer) *JSONLTrace { return obs.NewTrace(w) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// TraceAggregator is a sink that folds events into a MetricsRegistry as
// per-kind counters instead of persisting them.
type TraceAggregator = obs.Aggregator

// NewTraceAggregator returns a sink that folds events into reg as
// per-kind counters ("events.<kind>") instead of persisting them.
func NewTraceAggregator(reg *MetricsRegistry) *TraceAggregator { return obs.NewAggregator(reg) }

// ServeObs starts the opt-in debug HTTP endpoint on addr in the
// background — GET /metrics dumps reg as JSON, /debug/pprof/* exposes
// the standard profiles — and returns the bound address (addr may use
// port 0). The server runs for the remainder of the process; callers
// that need to stop the endpoint use StartObs instead.
func ServeObs(addr string, reg *MetricsRegistry) (string, error) { return obs.Serve(addr, reg) }

// ObsServer is the managed lifecycle of a debug endpoint started with
// StartObs: Addr reports the bound address and Shutdown drains it
// gracefully.
type ObsServer = obs.HTTPServer

// StartObs starts the debug HTTP endpoint like ServeObs but returns
// the managed handle so the caller can drain it — the form
// long-running processes use so the endpoint shuts down with the rest
// of the process (ObsServer.Shutdown).
func StartObs(addr string, reg *MetricsRegistry) (*ObsServer, error) {
	return obs.StartServer(addr, obs.Handler(reg))
}

// SetPoolMetrics points the worker pool's process-wide counters
// (parallel.fanouts / parallel.inline / parallel.items) at reg; nil
// disables them again.
func SetPoolMetrics(reg *MetricsRegistry) { parallel.SetMetrics(reg) }

// F1 scores a result set against the expected one.
func F1(got, want []int) float64 { return metrics.F1(got, want) }

// PRF1 returns precision, recall and F1 of a result set.
func PRF1(got, want []int) (precision, recall, f1 float64) { return metrics.PRF1(got, want) }
