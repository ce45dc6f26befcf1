package prob

import (
	"sync"

	"bayescrowd/internal/ctable"
)

// DefaultCacheSize bounds the component cache when the caller passes no
// explicit capacity. Entries are small — a float, a short variable list
// and the component's shape bytes — so the default costs a few megabytes
// at paper scale.
const DefaultCacheSize = 1 << 15

// cacheShardCount shards, picked by a key's top cacheShardBits bits,
// keep lock contention negligible at any realistic worker count without
// bloating the struct.
const (
	cacheShardBits  = 4
	cacheShardCount = 1 << cacheShardBits
)

// CacheStats is a point-in-time snapshot of one evaluator's component
// cache counters (Evaluator.CacheStats), surfaced through core.Result
// for observability.
type CacheStats struct {
	// Hits and Misses count the evaluator's component-key lookups during
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
	// key is the entry's 64-bit key; entries sharing a key chain through
	// next, and a hit also matches the shape, which spells out the
	// component's variables, structure and narrowing (fingerprint.go).
	key   uint64
	shape string
	next  *cacheEntry
	// p is a memoized component probability; vec, when non-nil, a joint
	// marginal sweep vector Pr(comp ∧ x=a) instead. The two entry kinds
	// live in disjoint key domains, so a key always identifies which
	// field is meaningful.
	p   float64
	vec []float64
}

// entryChains is a hash table of entries under their 64-bit keys,
// chaining the entries that share a key.
type entryChains map[uint64]*cacheEntry

// find returns the entry matching key and shape, or nil.
func (t entryChains) find(key uint64, shape []byte) *cacheEntry {
	for e := t[key]; e != nil; e = e.next {
		if e.shape == string(shape) {
			return e
		}
	}
	return nil
}

// drop unchains every entry that mentions a variable dead reports.
func (t entryChains) drop(dead func(ctable.Var) bool) {
	for k, head := range t {
		var kept *cacheEntry
		for e := head; e != nil; {
			next := e.next
			if !shapeMentions(e.shape, dead) {
				e.next, kept = kept, e
			}
			e = next
		}
		if kept == nil {
			delete(t, k)
		} else {
			t[k] = kept
		}
	}
}

// insert chains e under its key.
func (t entryChains) insert(e *cacheEntry) {
	e.next = t[e.key]
	t[e.key] = e
}

// remove unchains e.
func (t entryChains) remove(e *cacheEntry) {
	p := t[e.key]
	if p == e {
		if e.next == nil {
			delete(t, e.key)
		} else {
			t[e.key] = e.next
		}
		e.next = nil
		return
	}
	for p.next != e {
		p = p.next
	}
	p.next, e.next = e.next, nil
}

type cacheShard struct {
	mu sync.Mutex
	m  entryChains // guarded by mu
	// fifo holds exactly the entries of m, in insertion order: store
	// appends a new entry, the size cap evicts from the front, and Drop
	// filters it in place.
	fifo []*cacheEntry // guarded by mu
	cap  int
}

// ComponentCache memoizes two things under canonical component keys: the
// probability of connected clause components, and joint marginal sweep
// vectors Pr(component ∧ x=a) keyed by (component, swept variable) — the
// quantity that lets the UBS/HHS candidate scan price every
// constant-comparison candidate on x with a partial sum instead of a
// model-counting run. Together they turn repeated Pr(φ) work — the
// candidate scan and the cross-round recomputation fan-out — into
// lookups.
//
// Every key carries how each of the component's variables was narrowed
// (fingerprint.go), so an entry is a pure function of its key and the base
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
		c.shards[i].m = make(entryChains)
		c.shards[i].cap = perShard
	}
	return c
}

// shard returns the shard of a key, by its top bits.
func (c *ComponentCache) shard(key uint64) *cacheShard {
	return &c.shards[key>>(64-cacheShardBits)]
}

// lookup returns the probability and sweep vector of the entry matching
// key and shape, if present. The vector is shared: callers must treat it
// as read-only.
func (c *ComponentCache) lookup(key uint64, shape []byte) (p float64, vec []float64, ok bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	if e := sh.m.find(key, shape); e != nil {
		p, vec, ok = e.p, e.vec, true
	}
	sh.mu.Unlock()
	return p, vec, ok
}

// store memoizes a freshly computed entry — a component probability or
// a sweep vector, with its key and shape — and returns how many entries
// the size cap evicted to make room. An entry already present (a
// concurrent store of the same component) is kept. The cache retains e
// and its vector, which must not be mutated afterwards.
func (c *ComponentCache) store(e *cacheEntry) int {
	sh := c.shard(e.key)
	evicted := 0
	sh.mu.Lock()
	if sh.m.find(e.key, []byte(e.shape)) == nil {
		for len(sh.fifo) >= sh.cap {
			sh.m.remove(sh.fifo[0])
			sh.fifo[0] = nil
			sh.fifo = sh.fifo[1:]
			evicted++
		}
		sh.m.insert(e)
		sh.fifo = append(sh.fifo, e)
	}
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
		for _, e := range sh.fifo {
			if shapeMentions(e.shape, dead) {
				sh.m.remove(e)
				n++
				continue
			}
			kept = append(kept, e)
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
		n += len(sh.fifo)
		sh.mu.Unlock()
	}
	return n
}
