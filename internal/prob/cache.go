package prob

import (
	"slices"
	"sync"

	"bayescrowd/internal/ctable"
)

// DefaultCacheSize bounds the component cache when the caller passes no
// explicit capacity. Entries are small — a float, a short variable list
// and the fingerprint string — so the default costs a few megabytes at
// paper scale.
const DefaultCacheSize = 1 << 15

// cacheShardCount must be a power of two; 16 shards keep lock contention
// negligible at any realistic worker count without bloating the struct.
const cacheShardCount = 16

// CacheStats is a point-in-time snapshot of one evaluator's component
// cache counters (Evaluator.CacheStats), surfaced through core.Result
// for observability.
type CacheStats struct {
	// Hits and Misses count the evaluator's fingerprint lookups during
	// Pr(φ) evaluation. A hit replaces one branching model-counting run
	// over the component. Lookups by other evaluators sharing the cache
	// are not counted.
	Hits, Misses uint64
	// Evicted counts entries the size cap dropped to make room for the
	// evaluator's stores.
	Evicted uint64
	// InvalidatedEntries counts the memoized entries the cache's Drop
	// removed because they mentioned a dead variable. The count is
	// scheduling-dependent (which components were cached depends on the
	// preceding fan-out's schedule), so it surfaces as a metrics counter,
	// never on the trace.
	InvalidatedEntries uint64
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type cacheEntry struct {
	// p is a memoized component probability; vec, when non-nil, a joint
	// marginal sweep vector Pr(comp ∧ x=a) instead. The two entry kinds
	// live in disjoint key spaces (fingerprint domain prefixes), so a key
	// always identifies which field is meaningful.
	p   float64
	vec []float64
	// vars lists the component's variables, for Drop. It is read-only
	// and may be shared with other entries of the same component.
	vars []ctable.Var
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]cacheEntry // guarded by mu
	// fifo holds exactly the keys of m, in insertion order: store appends
	// a new key, the size cap evicts from the front, and Drop filters it
	// in place.
	fifo []string // guarded by mu
	cap  int
}

// ComponentCache memoizes two things under canonical fingerprints: the
// probability of connected clause components, and joint marginal sweep
// vectors Pr(component ∧ x=a) keyed by (component, swept variable) — the
// quantity that lets the UBS/HHS candidate scan price every
// constant-comparison candidate on x with a partial sum instead of a
// model-counting run. Together they turn repeated Pr(φ) work — the
// candidate scan and the cross-round recomputation fan-out — into
// lookups.
//
// Every key carries how each of the component's variables was narrowed
// (fingerprint), so an entry is a pure function of its key and the base
// distributions, and no distribution change can make it wrong. Any
// number of evaluators over the same base distributions and solver
// options may share the cache, each narrowing its variables differently:
// core keeps one per model. An entry whose variable is renormalised or
// retired is merely unreachable; Drop reclaims such entries early, the
// size cap eventually.
//
// Concurrency follows the Evaluator's single-writer contract: lookups and
// stores are safe from any number of workers and evaluators at once
// (shards are mutex-guarded), while Drop — like the distribution writes
// that make entries dead — runs strictly between fan-outs.
type ComponentCache struct {
	shards [cacheShardCount]cacheShard

	// dropped counts the entries Drop removed; written only by Drop
	// (single-writer, between fan-outs).
	dropped uint64
}

// NewComponentCache returns a cache bounded to at most maxEntries
// memoized components; maxEntries <= 0 selects DefaultCacheSize.
func NewComponentCache(maxEntries int) *ComponentCache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheSize
	}
	perShard := (maxEntries + cacheShardCount - 1) / cacheShardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &ComponentCache{}
	for i := range c.shards {
		//lint:ignore lockcheck construction: the cache has not escaped yet, no other goroutine can observe the shards
		c.shards[i].m = make(map[string]cacheEntry)
		c.shards[i].cap = perShard
	}
	return c
}

// shardOf hashes a fingerprint to its shard (FNV-1a).
func shardOf[K string | []byte](key K) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h & (cacheShardCount - 1)
}

// lookup returns the entry for the fingerprint, if present. An entry's
// vec and vars are shared: callers must treat them as read-only.
func (c *ComponentCache) lookup(key []byte) (cacheEntry, bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	sh.mu.Unlock()
	return e, ok
}

// store memoizes a freshly computed entry — a component probability p or
// a sweep vector vec, over the component's variables vars — and returns
// how many entries the size cap evicted to make room. key may alias
// caller scratch and is copied; vec and vars are retained as given and
// must not be mutated afterwards.
func (c *ComponentCache) store(key []byte, e cacheEntry) int {
	k := string(key)
	sh := &c.shards[shardOf(k)]
	evicted := 0
	sh.mu.Lock()
	if _, exists := sh.m[k]; !exists {
		for len(sh.m) >= sh.cap {
			delete(sh.m, sh.fifo[0])
			sh.fifo[0] = ""
			sh.fifo = sh.fifo[1:]
			evicted++
		}
		sh.fifo = append(sh.fifo, k)
	}
	sh.m[k] = e
	sh.mu.Unlock()
	return evicted
}

// Drop removes every entry that mentions a variable dead reports and
// returns how many it removed. Call it with the variables whose entries
// can no longer be hit — retired by an eviction, or renormalised, which
// moves every key mentioning the variable — batched per window tick or
// crowd round, since each call scans every shard. It only reclaims memory: a
// missed Drop leaves dead entries to the size cap, never a wrong
// probability. The returned count is scheduling-dependent (which
// components got cached depends on the preceding fan-out's schedule):
// surface it as a metrics counter, never on the trace.
//
// Single-writer: Drop must not run concurrently with lookups, i.e. only
// between parallel fan-outs.
func (c *ComponentCache) Drop(dead func(ctable.Var) bool) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		kept := sh.fifo[:0]
		for _, k := range sh.fifo {
			if slices.ContainsFunc(sh.m[k].vars, dead) {
				delete(sh.m, k)
				n++
				continue
			}
			kept = append(kept, k)
		}
		clear(sh.fifo[len(kept):])
		sh.fifo = kept
		sh.mu.Unlock()
	}
	c.dropped += uint64(n)
	return n
}

// Len returns the number of live entries across all shards.
func (c *ComponentCache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
