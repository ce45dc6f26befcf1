// Command bayescrowd answers a skyline query over an incomplete CSV
// dataset with crowdsourcing.
//
// Two crowd backends are available:
//
//   - simulated: -truth points at the complete CSV; simulated workers with
//     -accuracy answer from it (three per task, majority vote).
//   - interactive: -interactive prompts the operator on the terminal —
//     you are the crowd.
//
// Examples:
//
//	bayescrowd -data holes.csv -truth full.csv -budget 50 -latency 5 -strategy HHS -m 15
//	bayescrowd -data holes.csv -truth full.csv -net net.json   # reuse a learned network
//	bayescrowd -data holes.csv -interactive -budget 10 -latency 2
//	bayescrowd -data holes.csv -truth full.csv -trace run.jsonl -obs :6060
//	bayescrowd -data holes.csv -stream -window 200 -topk 5
//	bayescrowd -data holes.csv -truth full.csv -stream -window 200 -crowdbudget 100 -latency 2 -taskdeadline 4
//
// -stream replays the CSV rows as an arrival stream through the
// incremental sliding-window engine instead of running the crowdsourcing
// loop: each tick feeds -arrivals rows into a window bounded by -window
// (count) and/or -span (ticks of age), maintains the c-table and the
// probability cache by delta, and keeps the window's skyline
// probabilities current. By default no crowd backend is involved
// (missing cells keep uniform priors), so -truth/-interactive are not
// required.
//
// -crowdbudget attaches the asynchronous crowd loop to the stream: each
// tick posts up to -taskspertick tasks to a simulated crowd answering
// from -truth (required; the interactive crowd cannot straggle ticks
// behind and is not supported here), and answers arrive -latency ticks
// later — possibly after their task's -taskdeadline has expired or
// after the object they describe has left the window. Lost work is
// detected, discarded and refunded; the run prints the staleness ledger
// next to the final skyline. The fault-injection flags (-dropprob,
// -outageprob, -spamprob) compose with the crowd loop.
//
// -trace writes a deterministic JSONL event log of the run (byte-identical
// across -workers settings for a fixed -seed); -obs serves live /metrics
// and /debug/pprof endpoints and dumps the metrics registry at exit. See
// docs/OPERATIONS.md for the full event and counter reference.
//
// CSV format: first line "id,<attr names>", second line
// "levels,<domain sizes>", then one row per object with "?" for missing
// cells (see bayescrowd.WriteCSV). Larger values are better.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"

	"bayescrowd"
	"bayescrowd/internal/stream"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "incomplete dataset CSV (required)")
		truthPath   = flag.String("truth", "", "complete ground-truth CSV for the simulated crowd")
		interactive = flag.Bool("interactive", false, "answer tasks yourself on the terminal")
		accuracy    = flag.Float64("accuracy", 1.0, "simulated worker accuracy in [0,1]")
		budget      = flag.Int("budget", 50, "task budget B")
		latency     = flag.Int("latency", 5, "latency constraint L (rounds); with -stream -crowdbudget: constant crowd answer delay in ticks")
		strategy    = flag.String("strategy", "HHS", "task selection strategy: FBS, UBS or HHS")
		m           = flag.Int("m", 15, "HHS early-stop parameter")
		alpha       = flag.Float64("alpha", 0.01, "Get-CTable pruning threshold (0 disables)")
		netPath     = flag.String("net", "", "Bayesian network JSON from cmd/bnlearn (default: learn from the data)")
		workers     = flag.Int("workers", 0, "goroutines for the parallel phases; 0 = one per CPU, 1 = sequential (results are identical either way)")
		nocache     = flag.Bool("nocache", false, "disable the component probability cache (results are identical either way)")
		cacheSize   = flag.Int("cachesize", 0, "max memoized components; 0 = default bound")
		approxThr   = flag.Int("approxthreshold", 0, "estimate components with more than this many variables by Monte Carlo sampling (2000 draws, deterministic; Hoeffding: error >= 0.05 with probability <= 1e-4 per component); 0 = always exact")
		dropProb    = flag.Float64("dropprob", 0, "fault injection: per-task probability the answer is dropped")
		outageProb  = flag.Float64("outageprob", 0, "fault injection: per-round probability the platform fails outright")
		spamProb    = flag.Float64("spamprob", 0, "fault injection: per-task probability the answer is replaced by a random relation")
		maxRetries  = flag.Int("maxretries", 3, "retries per failed round (capped exponential backoff) before degrading")
		backoff     = flag.Duration("backoff", 0, "base retry backoff delay (doubles per attempt, capped at 32x); 0 retries immediately")
		reask       = flag.Int("reask", 0, "re-post a conflicting task this many times and absorb the majority; 0 discards conflicts")
		chargePost  = flag.Bool("chargeonpost", false, "charge the budget on posting instead of on answer arrival")
		tracePath   = flag.String("trace", "", "write a JSONL trace of the run's events to this file (deterministic under -seed)")
		obsAddr     = flag.String("obs", "", "serve /metrics and /debug/pprof on this address (e.g. :6060)")
		streamMode  = flag.Bool("stream", false, "replay the CSV as an arrival stream through the sliding-window engine (no crowd backend)")
		window      = flag.Int("window", 100, "stream mode: maximum live objects in the window (0 = unbounded)")
		span        = flag.Int64("span", 0, "stream mode: maximum object age in ticks (0 = no age bound)")
		arrivals    = flag.Int("arrivals", 1, "stream mode: rows arriving per tick")
		topk        = flag.Int("topk", 5, "stream mode: report the k highest-probability objects (0 disables)")
		crowdBudget = flag.Int("crowdbudget", 0, "stream mode: total crowd task budget; 0 keeps the stream machine-only")
		deadline    = flag.Int("taskdeadline", 2, "stream mode: ticks an unanswered crowd task stays in flight before expiring (refunded)")
		perTick     = flag.Int("taskspertick", 1, "stream mode: maximum crowd tasks posted per tick")
		seed        = flag.Int64("seed", 1, "random seed")
		verbose     = flag.Bool("v", false, "print per-round progress")
	)
	flag.Parse()

	if *dataPath == "" {
		fail("missing -data")
	}
	if !*streamMode && (*truthPath == "") == !*interactive {
		fail("pass exactly one of -truth or -interactive")
	}
	if *streamMode && *crowdBudget > 0 {
		if *truthPath == "" {
			fail("-stream with -crowdbudget needs -truth (the simulated crowd answers from it)")
		}
		if *interactive {
			fail("-interactive cannot back the asynchronous stream crowd loop")
		}
	}

	var strat bayescrowd.Strategy
	switch strings.ToUpper(*strategy) {
	case "FBS":
		strat = bayescrowd.FBS
	case "UBS":
		strat = bayescrowd.UBS
	case "HHS":
		strat = bayescrowd.HHS
	default:
		fail("unknown strategy %q", *strategy)
	}

	data, err := readCSV(*dataPath)
	if err != nil {
		fail("%v", err)
	}

	// Observability: one recorder is shared by the framework and the
	// fault injector (one logical clock per run); the registry feeds the
	// -obs endpoint and the end-of-run metrics dump.
	var (
		rec       *bayescrowd.TraceRecorder
		traceSink *bayescrowd.JSONLTrace
		traceFile *os.File
		registry  *bayescrowd.MetricsRegistry
	)
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			fail("%v", err)
		}
		traceSink = bayescrowd.NewJSONLTrace(traceFile)
		rec = bayescrowd.NewTraceRecorder(traceSink)
	}
	if *obsAddr != "" {
		registry = bayescrowd.NewMetricsRegistry()
		bayescrowd.SetPoolMetrics(registry)
		addr, err := bayescrowd.ServeObs(*obsAddr, registry)
		if err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "bayescrowd: serving /metrics and /debug/pprof on http://%s\n", addr)
	}

	if *streamMode {
		if *arrivals < 1 {
			fail("-arrivals must be at least 1")
		}
		var crowdPlatform *bayescrowd.UnreliableCrowd
		if *crowdBudget > 0 {
			if *latency < 0 {
				fail("-latency must be non-negative in stream mode")
			}
			truth, err := readCSV(*truthPath)
			if err != nil {
				fail("%v", err)
			}
			sim := bayescrowd.NewSimulatedCrowd(truth, *accuracy, rand.New(rand.NewSource(*seed)))
			crowdPlatform = bayescrowd.NewUnreliableCrowd(sim, *dropProb, *outageProb, *spamProb,
				rand.New(rand.NewSource(*seed+2)))
			crowdPlatform.MinDelay, crowdPlatform.MaxDelay = *latency, *latency
			crowdPlatform.Obs = rec
		}
		err := runStream(data, streamFlags{
			window: *window, span: *span, arrivals: *arrivals, topk: *topk,
			workers: *workers, noCache: *nocache, cacheSize: *cacheSize,
			verbose: *verbose,
			budget:  *crowdBudget, deadline: *deadline, perTick: *perTick,
			strategy: strat, m: *m,
		}, crowdPlatform, rand.New(rand.NewSource(*seed+1)), rec, registry)
		if err != nil {
			fail("%v", err)
		}
		if traceSink != nil {
			if err := traceSink.Flush(); err != nil {
				fail("trace: %v", err)
			}
			if err := traceFile.Close(); err != nil {
				fail("trace: %v", err)
			}
		}
		if registry != nil {
			fmt.Fprintln(os.Stderr, "\nmetrics:")
			if err := registry.WriteJSON(os.Stderr); err != nil {
				fail("metrics: %v", err)
			}
		}
		return
	}

	var platform bayescrowd.Platform
	if *interactive {
		platform = &terminalCrowd{in: bufio.NewScanner(os.Stdin), data: data}
	} else {
		truth, err := readCSV(*truthPath)
		if err != nil {
			fail("%v", err)
		}
		platform = bayescrowd.NewSimulatedCrowd(truth, *accuracy, rand.New(rand.NewSource(*seed)))
	}
	if *dropProb > 0 || *outageProb > 0 || *spamProb > 0 {
		u := bayescrowd.NewUnreliableCrowd(platform, *dropProb, *outageProb, *spamProb,
			rand.New(rand.NewSource(*seed+2)))
		u.Obs = rec // injected faults show up in the trace
		platform = u
	}

	opts := bayescrowd.Options{
		Alpha:           *alpha,
		Budget:          *budget,
		Latency:         *latency,
		Strategy:        strat,
		M:               *m,
		Workers:         *workers,
		NoCache:         *nocache,
		CacheSize:       *cacheSize,
		ApproxThreshold: *approxThr,
		MaxRetries:      *maxRetries,
		RetryBackoff:    *backoff,
		ReaskConflicts:  *reask,
		ChargeOnPost:    *chargePost,
		Trace:           rec,
		Metrics:         registry,
		Rng:             rand.New(rand.NewSource(*seed + 1)),
	}
	if *netPath != "" {
		f, err := os.Open(*netPath)
		if err != nil {
			fail("%v", err)
		}
		net, err := bayescrowd.ReadBayesNet(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail("%v", err)
		}
		opts.Net = net
	}
	if *verbose {
		opts.OnRound = func(round, tasks, undecided int) {
			fmt.Fprintf(os.Stderr, "round %d: %d tasks posted, %d objects undecided\n", round, tasks, undecided)
		}
	}
	res, err := bayescrowd.Run(data, platform, opts)
	if err != nil {
		fail("%v", err)
	}
	if traceSink != nil {
		if err := traceSink.Flush(); err != nil {
			fail("trace: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fail("trace: %v", err)
		}
	}

	fmt.Printf("posted %d tasks in %d rounds (%d budget units spent)\n", res.TasksPosted, res.Rounds, res.BudgetSpent)
	if res.ApproxComponents > 0 {
		fmt.Printf("approximated %d components (threshold %d variables, 2000 Monte Carlo draws each)\n",
			res.ApproxComponents, *approxThr)
	}
	if res.TasksDropped > 0 || res.FailedRounds > 0 || res.ConflictingAnswers > 0 || res.TasksReasked > 0 {
		fmt.Printf("robustness: %d dropped, %d re-queued, %d round failures (%d retried, %v backoff), %d conflicts (%d re-asked copies, %d resolved)\n",
			res.TasksDropped, res.TasksRequeued, res.FailedRounds, res.RoundRetries, res.BackoffTime,
			res.ConflictingAnswers, res.TasksReasked, res.ConflictsResolved)
	}
	if res.Degraded {
		fmt.Printf("WARNING: degraded result — %s\n", res.DegradedReason)
	}
	fmt.Println()
	fmt.Println("skyline answers:")
	for _, i := range res.Answers {
		conf := "certain"
		if p, ok := res.Probs[i]; ok {
			conf = fmt.Sprintf("Pr=%.2f", p)
		}
		fmt.Printf("  %s (%s)\n", data.Objects[i].ID, conf)
	}

	// Undecided non-answers, most promising first — what more budget
	// would buy.
	type cand struct {
		i int
		p float64
	}
	// Gather in object-index order, not map-iteration order, so equal
	// probabilities print identically on every run (the stable sort keeps
	// index order among ties).
	var maybes []cand
	for i := range data.Objects {
		if p, ok := res.Probs[i]; ok && p <= 0.5 {
			maybes = append(maybes, cand{i, p})
		}
	}
	if len(maybes) > 0 {
		sort.SliceStable(maybes, func(a, b int) bool { return maybes[a].p > maybes[b].p })
		fmt.Println("\nstill uncertain (excluded, Pr <= 0.5):")
		for k, c := range maybes {
			if k == 5 {
				fmt.Printf("  ... and %d more\n", len(maybes)-5)
				break
			}
			fmt.Printf("  %s (Pr=%.2f)\n", data.Objects[c.i].ID, c.p)
		}
	}

	// A short run outlives its debug endpoint almost immediately, so the
	// registry is also dumped once at exit.
	if registry != nil {
		fmt.Fprintln(os.Stderr, "\nmetrics:")
		if err := registry.WriteJSON(os.Stderr); err != nil {
			fail("metrics: %v", err)
		}
	}
}

// streamFlags bundles the -stream mode's knobs.
type streamFlags struct {
	window    int
	span      int64
	arrivals  int
	topk      int
	workers   int
	noCache   bool
	cacheSize int
	verbose   bool
	// Crowd loop knobs; budget 0 keeps the stream machine-only.
	budget   int
	deadline int
	perTick  int
	strategy bayescrowd.Strategy
	m        int
}

// runStream replays the dataset's rows, in file order, as an arrival
// stream through the incremental sliding-window engine and prints the
// final window's skyline. Stream ids coincide with row indices (every row
// is inserted exactly once, in order), which is how answers map back to
// the CSV's object ids. With a positive crowd budget the asynchronous
// crowd loop runs interleaved with the ticks (a zero budget ticks
// bit-identically to the machine-only engine), and the run ends with the
// staleness ledger.
func runStream(data *bayescrowd.Dataset, f streamFlags, platform *bayescrowd.UnreliableCrowd, rng *rand.Rand, rec *bayescrowd.TraceRecorder, registry *bayescrowd.MetricsRegistry) error {
	cfg := stream.CrowdConfig{
		Config: stream.Config{
			Attrs:     data.Attrs,
			Window:    stream.Window{Count: f.window, Span: f.span},
			TopK:      f.topk,
			Workers:   f.workers,
			NoCache:   f.noCache,
			CacheSize: f.cacheSize,
			Obs:       rec,
			Metrics:   registry,
		},
		Budget:       f.budget,
		TasksPerTick: f.perTick,
		TaskDeadline: f.deadline,
		Strategy:     f.strategy,
		M:            f.m,
		Rng:          rng,
	}
	if platform != nil {
		cfg.Platform = platform
	}
	eng, err := stream.NewCrowd(cfg)
	if err != nil {
		return err
	}

	var last stream.CrowdTickResult
	now := int64(0)
	for i := 0; i < len(data.Objects); i += f.arrivals {
		end := i + f.arrivals
		if end > len(data.Objects) {
			end = len(data.Objects)
		}
		batch := make([][]bayescrowd.Cell, 0, end-i)
		for _, o := range data.Objects[i:end] {
			batch = append(batch, o.Cells)
		}
		last = eng.Tick(now, batch)
		if f.verbose {
			line := fmt.Sprintf("tick %d: +%d -%d, %d conditions re-solved, %d skyline answers",
				now, len(last.Inserted), len(last.Evicted), last.Recomputed, len(last.Answers))
			if f.budget > 0 {
				line += fmt.Sprintf("; crowd: %d posted, %d arrived, %d in flight", last.Crowd.Posted, last.Crowd.Arrived, last.InFlight)
				if last.Lagging {
					line += " (lagging)"
				}
			}
			fmt.Fprintln(os.Stderr, line)
		}
		now++
	}

	fmt.Printf("streamed %d objects in %d ticks; final window holds %d\n",
		len(data.Objects), now, eng.Len())
	if f.budget > 0 {
		tot := eng.Totals()
		fmt.Printf("crowd: posted %d tasks, absorbed %d answers (%d conflicts), spent %d/%d units (%d still reserved)\n",
			tot.Posted, tot.Absorbed, tot.Conflicts, tot.Charged, f.budget, tot.InFlight)
		if lost := tot.Expired + tot.Stale + tot.Late + tot.PostFailed; lost > 0 {
			fmt.Printf("crowd lag: %d tasks expired, %d answers stale, %d late, %d post failures (%d units refunded)\n",
				tot.Expired, tot.Stale, tot.Late, tot.PostFailed, tot.Refunded)
		}
	}
	fmt.Println("\nskyline of the final window (Pr > 0.5):")
	for _, id := range last.Answers {
		fmt.Printf("  %s\n", data.Objects[id].ID)
	}
	if len(last.Answers) == 0 {
		fmt.Println("  (none)")
	}
	if f.topk > 0 {
		fmt.Printf("\ntop-%d by skyline probability:\n", f.topk)
		for _, r := range last.TopK {
			fmt.Printf("  %s (Pr=%.2f)\n", data.Objects[r.ID].ID, r.P)
		}
	}
	return nil
}

func readCSV(path string) (*bayescrowd.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bayescrowd.ReadCSV(f)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bayescrowd: "+format+"\n", args...)
	os.Exit(2)
}

// terminalCrowd asks the operator each task on stdin.
type terminalCrowd struct {
	in   *bufio.Scanner
	data *bayescrowd.Dataset
}

func (t *terminalCrowd) Post(tasks []bayescrowd.Task) ([]bayescrowd.Answer, error) {
	answers := make([]bayescrowd.Answer, 0, len(tasks))
	for _, task := range tasks {
		fmt.Printf("%v  [</=/>/skip] ", task)
		for {
			if !t.in.Scan() {
				// Closed stdin is a round-level failure: hand back whatever
				// was answered so far and let the framework degrade.
				fmt.Println()
				return answers, fmt.Errorf("stdin closed with %d tasks unanswered", len(tasks)-len(answers))
			}
			switch strings.TrimSpace(t.in.Text()) {
			case "<":
				answers = append(answers, bayescrowd.Answer{Task: task, Rel: bayescrowd.LessThan})
			case "=":
				answers = append(answers, bayescrowd.Answer{Task: task, Rel: bayescrowd.EqualTo})
			case ">":
				answers = append(answers, bayescrowd.Answer{Task: task, Rel: bayescrowd.LargerThan})
			case "skip", "s":
				// The operator declines the task — a deliberate drop; the
				// framework re-queues it.
			default:
				fmt.Print("please answer <, = or > (or skip): ")
				continue
			}
			break
		}
	}
	return answers, nil
}
