package main

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"bayescrowd/internal/service"
)

// workload is one traffic mix. The svc-* workloads drive bayescrowdd
// over HTTP; stream-crowd drives stream.CrowdEngine in-process. Why each
// exists is recorded in BENCHMARK.json and README.md.
type workload struct {
	name   string
	stream bool

	// svc-*: the dataset, the query shape and the load.
	objects    int
	alpha      float64
	budget     int
	latency    int
	strategies []string // cycled over the spec cycle
	m          int      // HHS early stop
	cycle      int      // distinct query specs, reused round-robin
	closed     bool     // one closed-loop client; otherwise the open loop
	perDaemon  int      // closed loop: queries one daemon serves before a fresh one takes over; 0 is no limit
	crowdMin   time.Duration
	crowdMax   time.Duration // crowd answer delay; zero answers at once

	// stream-crowd: the window and the crowd loop, in ticks.
	passes       int // passes over the same ticks, each on fresh engines
	window       int
	tasksPerTick int
	delayMin     int
	delayMax     int
	deadline     int

	// setups is how many set-up samples a run takes (setup_s is their
	// median): dataset registrations on a svc run's first daemon (each
	// later daemon adds one), window fills per stream pass. Cheap set-ups
	// take more.
	setups int

	// perSecond sizes a run: a run of --seconds s does perSecond×s
	// queries or ticks. For the open loop it is the arrival rate; for the
	// others, somewhat less than what a quiet 2-core machine completes.
	perSecond float64
}

// Settings shared by every workload.
const (
	// missingRate is the share of cells hidden from the daemon.
	missingRate = 0.10
	// daemonWorkers and maxConcurrent are the daemon's -workers and
	// -maxconcurrent: the machine has two cores. The closed loops run one
	// client, so one query computes at a time there and its latency does
	// not depend on which query runs beside it.
	daemonWorkers = 2
	maxConcurrent = 2
	// maxConns caps the connections of the one transport that carries
	// every client request and every answer callback.
	maxConns = 2
	// taskDeadline is the daemon's task deadline. No workload's crowd
	// comes near it, so an expiry means the daemon fell behind.
	taskDeadline = 10 * time.Second
	// heapCap is the memory guard: past it the run stops admitting work.
	heapCap = 3 << 30
	// closedPoll and openPoll are the status poll intervals. Polls only
	// detect completion (latency ends at the server's Finished stamp),
	// so the open loop, with many queries parked on the crowd at once,
	// polls less often to keep poll traffic off the two connections.
	closedPoll = 2 * time.Millisecond
	openPoll   = 20 * time.Millisecond
	// checkpointEvery is how often (in ticks) stream-crowd scores its
	// window against the oracle.
	checkpointEvery = 100
	// minSamples is the fewest queries or ticks a pass runs, so a p95
	// has minBeyond samples beyond it.
	minSamples = 200
	// dataSeed generates every workload's data, the query specs and the
	// stream's crowd. They stay the same across -seed values: the cost of
	// a query or a tick varies 2-4× between generated datasets (heavy
	// Pr(φ) components come and go), far beyond any regression bound.
	dataSeed = 1
)

// workloads are the benchmark's traffic mixes, in BENCHMARK.json order.
var workloads = []workload{
	{
		name: "svc-mixed", objects: 2000, alpha: 0.01, budget: 40, latency: 5,
		strategies: []string{"FBS", "UBS", "HHS"}, m: 5, cycle: 24, closed: true,
		setups: 11, perSecond: 16,
	},
	{
		name: "svc-oneshot", objects: 10000, alpha: 0.003, budget: 10, latency: 1,
		strategies: []string{"FBS", "UBS"}, cycle: 8, closed: true,
		perDaemon: 64, setups: 5, perSecond: 9, // each query retains about 3 MB
	},
	{
		name: "svc-crowd", objects: 1000, alpha: 0.01, budget: 20, latency: 5,
		strategies: []string{"FBS", "UBS", "HHS"}, m: 5, cycle: 24,
		crowdMin: 20 * time.Millisecond, crowdMax: 80 * time.Millisecond,
		setups: 15, perSecond: 50,
	},
	{
		name: "stream-crowd", stream: true, passes: 5, window: 1000, tasksPerTick: 2,
		delayMin: 1, delayMax: 3, deadline: 4,
		setups: 5, perSecond: 80,
	},
}

// ops is how many queries (svc) or ticks (stream, over all its passes)
// a run sized for dur does: perSecond×dur, at least minSamples (per
// pass), and whole spec cycles in the closed loop, cycles of query pairs
// in the open loop, and checkpoints in every stream pass. Fixing the
// work, rather than the time, makes every run of a seed do the same
// queries or ticks.
func (w workload) ops(dur time.Duration) int {
	n := int(math.Ceil(w.perSecond * dur.Seconds()))
	floor, unit := minSamples, 2*w.cycle
	switch {
	case w.stream:
		floor, unit = minSamples*w.passes, checkpointEvery*w.passes
	case w.closed:
		unit = w.cycle
	}
	n = max(n, floor)
	return (n + unit - 1) / unit * unit
}

// lookup returns the named workload.
func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Independent seed streams derived from -seed (and dataSeed), one per
// input.
const (
	streamData = iota + 1
	streamQueries
	streamArrivals
	streamCrowd
	streamSelect
	streamHoles
)

// subSeed derives the seed of one input stream from the run's seed
// (splitmix64), so the inputs stay independent of each other.
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// specs returns the query cycle: query i of a run uses specs[i%len].
// The specs themselves — strategies in turn, each with its own seed for
// the library's tie-breaking — come from dataSeed, because a query's
// cost swings with its tie-breaking seed (the spec cycle's mean moves by
// ±15% between seed sets). -seed permutes their order: the order the
// closed-loop client runs them in, and which queries arrive together in
// the open loop.
func specs(w workload, seed int64, dataset string) []service.QueryRequest {
	rng := rand.New(rand.NewSource(subSeed(dataSeed, streamQueries)))
	fixed := make([]service.QueryRequest, w.cycle)
	for i := range fixed {
		strategy := w.strategies[i%len(w.strategies)]
		fixed[i] = service.QueryRequest{
			Dataset:  dataset,
			Alpha:    w.alpha,
			Budget:   w.budget,
			Latency:  w.latency,
			Strategy: strategy,
			Seed:     1 + rng.Int63n(1<<31),
		}
		if strategy == "HHS" {
			fixed[i].M = w.m
		}
	}
	out := make([]service.QueryRequest, w.cycle)
	for i, j := range rand.New(rand.NewSource(subSeed(seed, streamQueries))).Perm(w.cycle) {
		out[i] = fixed[j]
	}
	return out
}

// arrivals returns the open loop's send times for pairs query pairs,
// offsets from the start of the measured phase, ascending. Each offset
// sends two identical queries. The times are a Poisson process at
// rate/2 pairs per second given its count: independent uniform times
// over pairs×2/rate seconds.
func arrivals(seed int64, rate float64, pairs int) []time.Duration {
	rng := rand.New(rand.NewSource(subSeed(seed, streamArrivals)))
	span := int64(float64(pairs) * 2 / rate * float64(time.Second))
	out := make([]time.Duration, pairs)
	for i := range out {
		out[i] = time.Duration(rng.Int63n(span))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// crowdDelay is how long the crowd takes to answer a question: a pure
// function of the seed and the question, uniform in [lo, hi].
func crowdDelay(seed int64, question string, lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	h := uint64(14695981039346656037) // FNV-1a over the question
	for i := 0; i < len(question); i++ {
		h ^= uint64(question[i])
		h *= 1099511628211
	}
	mixed := uint64(subSeed(seed^int64(h), streamCrowd))
	return lo + time.Duration(mixed%uint64(hi-lo+1))
}

// median returns the middle value (the mean of the two middle values for
// an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
