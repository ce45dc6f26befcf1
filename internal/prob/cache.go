package prob

import (
	"sync"

	"bayescrowd/internal/ctable"
)

// DefaultCacheSize bounds the component cache when the caller passes no
// explicit capacity. Entries are small — a float, an epoch stamp, a short
// variable list and the fingerprint string — so the default costs a few
// megabytes at paper scale.
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
	// Invalidated counts variables whose epoch the cache's Invalidate
	// bumped — one per renormalised distribution, not one per dead entry.
	Invalidated uint64
	// InvalidatedEntries counts the memoized entries Invalidate evicted
	// eagerly because they mentioned a bumped variable. The count is
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
	// stamp is the cache epoch when the entry was computed; the entry is
	// stale once any of its variables carries a newer epoch.
	stamp uint64
	vars  []ctable.Var
}

type cacheShard struct {
	mu sync.Mutex
	m  map[string]cacheEntry // guarded by mu
	// fifo holds insertion order for eviction. It may briefly contain
	// keys already deleted by lazy invalidation (the eviction loop skips
	// them) or duplicates from re-insertion after a stale drop; it is
	// compacted when it outgrows the live map.
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
// A cache serves in one of two modes, set by the evaluators using it
// (Evaluator.Narrowed):
//
//   - Narrowing keys. Every key carries how each of the component's
//     variables was narrowed, so an entry is a pure function of its key
//     and the base distributions. Any number of evaluators over the same
//     base distributions and solver options may share the cache, each
//     narrowing its variables differently, and nothing is ever
//     invalidated. core keeps one such cache per model.
//   - Structural keys. A key is the clause structure alone, so the cache
//     must belong to one evaluator, and whoever renormalises a variable
//     of its distributions must call Invalidate — the streaming engine.
//
// Concurrency follows the Evaluator's single-writer contract: lookups and
// stores are safe from any number of workers and evaluators at once
// (shards are mutex-guarded), while Invalidate — like the distribution
// renormalisation it mirrors — must run strictly between fan-outs; the
// pool join publishes its epoch bumps to the next fan-out's workers.
type ComponentCache struct {
	shards [cacheShardCount]cacheShard

	// epoch and varEpoch are written only by Invalidate (single-writer,
	// between fan-outs) and read lock-free during fan-outs.
	epoch              uint64
	varEpoch           map[ctable.Var]uint64
	invalidated        uint64
	invalidatedEntries uint64
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
	c := &ComponentCache{varEpoch: map[ctable.Var]uint64{}}
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

// lookup returns the live entry for the fingerprint, if present and not
// invalidated by a newer variable epoch. Stale entries are deleted on
// sight so their slots free up before FIFO eviction reaches them. An
// entry's vec is shared: callers must treat it as read-only.
func (c *ComponentCache) lookup(key []byte) (cacheEntry, bool) {
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	sh.mu.Unlock()
	if ok {
		stale := false
		for _, v := range e.vars {
			if c.varEpoch[v] > e.stamp {
				stale = true
				break
			}
		}
		if !stale {
			return e, true
		}
		sh.mu.Lock()
		if cur, live := sh.m[string(key)]; live && cur.stamp == e.stamp {
			delete(sh.m, string(key))
		}
		sh.mu.Unlock()
	}
	return cacheEntry{}, false
}

// store memoizes a freshly computed entry — a component probability p or
// a sweep vector vec — over the component's variables, and returns how
// many entries the size cap evicted to make room. key and vars may alias
// caller scratch; both are copied. A vec is retained as given and must
// not be mutated afterwards.
func (c *ComponentCache) store(key []byte, vars []ctable.Var, e cacheEntry) int {
	k := string(key)
	sh := &c.shards[shardOf(k)]
	e.stamp = c.epoch
	e.vars = append([]ctable.Var(nil), vars...)
	evicted := 0
	sh.mu.Lock()
	if _, exists := sh.m[k]; !exists {
		for len(sh.m) >= sh.cap && len(sh.fifo) > 0 {
			old := sh.fifo[0]
			sh.fifo = sh.fifo[1:]
			if _, live := sh.m[old]; live {
				delete(sh.m, old)
				evicted++
			}
		}
		sh.fifo = append(sh.fifo, k)
		if len(sh.fifo) > 2*sh.cap+16 {
			sh.compactFIFO()
		}
	}
	sh.m[k] = e
	sh.mu.Unlock()
	return evicted
}

// compactFIFO rebuilds the eviction queue from the keys still live in the
// map, preserving order and dropping duplicates. Called with mu held.
func (sh *cacheShard) compactFIFO() {
	kept := make([]string, 0, len(sh.m))
	//lint:ignore hotalloc compaction is rare and amortized over many stores; the dedup set is not per-evaluation
	seen := make(map[string]bool, len(sh.m))
	for _, k := range sh.fifo {
		if _, live := sh.m[k]; live && !seen[k] {
			seen[k] = true
			kept = append(kept, k)
		}
	}
	sh.fifo = kept
}

// Invalidate marks every memoized component mentioning one of the given
// variables stale and returns how many entries it evicted. It serves a
// cache under structural keys: the streaming crowd loop calls it when a
// crowd answer renormalises a variable's distribution (conditions whose
// clauses were merely rewritten need no bump — their fingerprints
// change, so the old entries can never be hit again), and the streaming
// engine with the variables of evicted objects, whose fingerprints can
// never recur and would otherwise pin dead entries until FIFO eviction
// reached them. A cache under narrowing keys never needs it.
//
// Dead entries are dropped eagerly here — one scan of the shards per
// call, so batch the variables of a round (or a window tick) into one
// Invalidate — and the per-variable epoch bump remains as a backstop.
// The returned count is scheduling-dependent (which components got
// cached depends on the preceding fan-out's schedule): surface it as a
// metrics counter, never on the trace.
//
// Single-writer: Invalidate must not run concurrently with lookups, i.e.
// only between parallel fan-outs, matching when the Evaluator's Dists may
// be mutated.
func (c *ComponentCache) Invalidate(vars ...ctable.Var) int {
	if len(vars) == 0 {
		return 0
	}
	c.epoch++
	bumped := make(map[ctable.Var]bool, len(vars))
	for _, v := range vars {
		c.varEpoch[v] = c.epoch
		bumped[v] = true
	}
	evicted := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for key, e := range sh.m {
			for _, v := range e.vars {
				if bumped[v] {
					delete(sh.m, key)
					evicted++
					break
				}
			}
		}
		sh.mu.Unlock()
	}
	c.invalidated += uint64(len(vars))
	c.invalidatedEntries += uint64(evicted)
	return evicted
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
