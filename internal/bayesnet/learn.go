package bayesnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"bayescrowd/internal/parallel"
)

// Fit estimates the CPT of every node from complete integer-coded rows by
// maximum likelihood with Laplace (add-alpha) smoothing. The structure
// (names, levels, parents) is given by nodes; the returned network shares
// nothing with the input slice.
//
// With alpha = 1 this is the posterior mean under a uniform Dirichlet
// prior — the estimate the paper's Infer.Net step produces for fully
// observed discrete data.
func Fit(nodes []Node, data [][]int, alpha float64) (*Network, error) {
	if alpha < 0 {
		return nil, fmt.Errorf("bayesnet: negative smoothing %v", alpha)
	}
	fitted := make([]Node, len(nodes))
	for i, nd := range nodes {
		cfgs := 1
		for _, p := range nd.Parents {
			cfgs *= nodes[p].Levels
		}
		counts := make([]float64, cfgs*nd.Levels)
		for _, row := range data {
			if len(row) != len(nodes) {
				return nil, fmt.Errorf("bayesnet: row has %d values, want %d", len(row), len(nodes))
			}
			cfg := 0
			for _, p := range nd.Parents {
				if row[p] < 0 || row[p] >= nodes[p].Levels {
					return nil, fmt.Errorf("bayesnet: value %d outside domain of node %q", row[p], nodes[p].Name)
				}
				cfg = cfg*nodes[p].Levels + row[p]
			}
			if row[i] < 0 || row[i] >= nd.Levels {
				return nil, fmt.Errorf("bayesnet: value %d outside domain of node %q", row[i], nd.Name)
			}
			counts[cfg*nd.Levels+row[i]]++
		}
		cpt := make([]float64, len(counts))
		for c := 0; c < cfgs; c++ {
			total := alpha * float64(nd.Levels)
			for v := 0; v < nd.Levels; v++ {
				total += counts[c*nd.Levels+v]
			}
			for v := 0; v < nd.Levels; v++ {
				if total == 0 {
					cpt[c*nd.Levels+v] = 1 / float64(nd.Levels)
				} else {
					cpt[c*nd.Levels+v] = (counts[c*nd.Levels+v] + alpha) / total
				}
			}
		}
		fitted[i] = Node{
			Name:    nd.Name,
			Levels:  nd.Levels,
			Parents: append([]int(nil), nd.Parents...),
			CPT:     cpt,
		}
	}
	return New(fitted)
}

// LearnOptions tunes structure learning.
type LearnOptions struct {
	// MaxParents caps the in-degree of every node (default 3).
	MaxParents int
	// Restarts is the number of random restarts beyond the initial
	// empty-graph climb (default 2).
	Restarts int
	// MaxIters bounds the number of hill-climbing moves per restart
	// (default 200).
	MaxIters int
	// Alpha is the Laplace smoothing used when fitting the final CPTs
	// (default 1).
	Alpha float64
	// Rng seeds restart perturbations; defaults to a fixed seed for
	// reproducibility.
	Rng *rand.Rand
	// Workers bounds the goroutines that score a hill-climbing step's
	// candidate families; <= 0 (the zero value) means one per available
	// CPU. Each family's score is computed wholly by one worker and the
	// move scan stays sequential, so the network is the same at any
	// setting.
	Workers int
}

func (o LearnOptions) withDefaults() LearnOptions {
	if o.MaxParents == 0 {
		o.MaxParents = 3
	}
	if o.Restarts == 0 {
		o.Restarts = 2
	}
	if o.MaxIters == 0 {
		o.MaxIters = 200
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	o.Workers = parallel.Workers(o.Workers)
	return o
}

// LearnStructure searches for a high-BIC DAG over the given variables by
// greedy hill climbing with add/delete/reverse edge moves and random
// restarts, then fits CPT parameters. It is the substitute for the paper's
// Banjo step: Banjo performs the same family of greedy/annealed searches
// over DAG space with a decomposable score.
//
// names and levels describe the variables; data holds complete rows.
func LearnStructure(names []string, levels []int, data [][]int, opt LearnOptions) (*Network, error) {
	if len(names) != len(levels) {
		return nil, fmt.Errorf("bayesnet: %d names for %d levels", len(names), len(levels))
	}
	opt = opt.withDefaults()
	n := len(names)
	sc, err := newScorer(names, levels, data, opt.Workers)
	if err != nil {
		return nil, err
	}

	bestParents := climb(sc, emptyParents(n), opt)
	bestScore := totalScore(sc, bestParents)

	for r := 0; r < opt.Restarts; r++ {
		start := randomDAG(opt.Rng, n, opt.MaxParents)
		cand := climb(sc, start, opt)
		if s := totalScore(sc, cand); s > bestScore {
			bestScore, bestParents = s, cand
		}
	}

	nodes := make([]Node, n)
	for i := range nodes {
		nodes[i] = Node{Name: names[i], Levels: levels[i], Parents: bestParents[i]}
	}
	return Fit(nodes, data, opt.Alpha)
}

func emptyParents(n int) [][]int { return make([][]int, n) }

func randomDAG(rng *rand.Rand, n, maxParents int) [][]int {
	// Random permutation defines a causal order; sprinkle edges forward.
	perm := rng.Perm(n)
	parents := make([][]int, n)
	for i := 1; i < n; i++ {
		child := perm[i]
		for j := 0; j < i; j++ {
			if len(parents[child]) >= maxParents {
				break
			}
			if rng.Float64() < 0.3 {
				parents[child] = append(parents[child], perm[j])
			}
		}
		sort.Ints(parents[child])
	}
	return parents
}

// scorer computes and caches per-family BIC scores. A family is keyed by
// its child and the code of its (sorted) parent set: the sum of the
// parents' weights. Node p weighs 1<<p in networks of at most 64 nodes,
// so there the code is the set's bitmask and no two sets share it; in
// wider networks p weighs a 64-bit mix of p, and the rare sets whose
// codes collide chain through family.next.
type scorer struct {
	cols    [][]int32 // cols[j][r] is row r's value of variable j
	levels  []int
	logRows float64 // log of the row count, for the BIC penalty
	weight  []uint64
	index   map[familyKey]int32 // a key's first family in fams
	fams    []family
	workers int
	bufs    []scoreBuf // one per worker
}

// familyKey is a family's cache key: its child and its parent-set code.
type familyKey struct {
	node int
	code uint64
}

// family is one cached score.
type family struct {
	parents []int
	score   float64
	next    int32 // the next family with the same key, or -1
}

// scoreBuf is one worker's scratch space for scoring a family: each
// row's parent configuration and the count table.
type scoreBuf struct {
	cfg    []int
	counts []int32
}

// newScorer checks the training rows against the schema and transposes
// them into columns.
func newScorer(names []string, levels []int, data [][]int, workers int) (*scorer, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("bayesnet: no training data")
	}
	n := len(levels)
	s := &scorer{
		cols:    make([][]int32, n),
		levels:  levels,
		logRows: math.Log(float64(len(data))),
		weight:  make([]uint64, n),
		index:   map[familyKey]int32{},
		workers: workers,
		bufs:    make([]scoreBuf, workers),
	}
	for j := range s.cols {
		s.cols[j] = make([]int32, len(data))
		if n <= 64 {
			s.weight[j] = 1 << j
		} else {
			s.weight[j] = mix64(uint64(j))
		}
	}
	for r, row := range data {
		if len(row) != n {
			return nil, fmt.Errorf("bayesnet: row has %d values, want %d", len(row), n)
		}
		for j, v := range row {
			if v < 0 || v >= levels[j] {
				return nil, fmt.Errorf("bayesnet: value %d outside domain of node %q", v, names[j])
			}
			s.cols[j][r] = int32(v)
		}
	}
	return s, nil
}

// mix64 is the SplitMix64 finaliser: it spreads the bits of x over the
// whole word.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// code returns a parent set's code.
func (s *scorer) code(parents []int) uint64 {
	var c uint64
	for _, p := range parents {
		c += s.weight[p]
	}
	return c
}

// cached returns the cached score of node given parents, whose code is
// code.
func (s *scorer) cached(node int, code uint64, parents []int) (float64, bool) {
	i, ok := s.index[familyKey{node, code}]
	for ok && i >= 0 {
		f := &s.fams[i]
		if slices.Equal(f.parents, parents) {
			return f.score, true
		}
		i = f.next
	}
	return 0, false
}

// store caches a score; the key must not hold parents already.
func (s *scorer) store(node int, code uint64, parents []int, score float64) {
	k := familyKey{node, code}
	next, ok := s.index[k]
	if !ok {
		next = -1
	}
	s.index[k] = int32(len(s.fams))
	s.fams = append(s.fams, family{parents: slices.Clone(parents), score: score, next: next})
}

// family returns the BIC score of node given the (sorted) parent set,
// from the cache or scored on the calling goroutine.
func (s *scorer) family(node int, parents []int) float64 {
	code := s.code(parents)
	if v, ok := s.cached(node, code, parents); ok {
		return v
	}
	v := s.score(node, parents, &s.bufs[0])
	s.store(node, code, parents, v)
	return v
}

// score computes the BIC score of node given the (sorted) parent set:
// log-likelihood of the column minus the BIC complexity penalty. It
// writes only buf, so workers with their own buffers may score
// concurrently. Counts are exact integers, so counting them as int32
// and summing a configuration's total from its row of counts gives the
// same floats as accumulating them in float64 row by row.
func (s *scorer) score(node int, parents []int, buf *scoreBuf) float64 {
	cfgs := 1
	for _, p := range parents {
		cfgs *= s.levels[p]
	}
	lv := s.levels[node]
	col := s.cols[node]
	if cap(buf.cfg) < len(col) {
		buf.cfg = make([]int, len(col))
	}
	if cap(buf.counts) < cfgs*lv {
		buf.counts = make([]int32, cfgs*lv)
	}
	counts := buf.counts[:cfgs*lv]
	clear(counts)
	if len(parents) == 0 {
		for _, v := range col {
			counts[v]++
		}
	} else {
		// A row's configuration reads its parents' values as digits,
		// the first parent most significant.
		cfg := buf.cfg[:len(col)]
		for r, v := range s.cols[parents[0]] {
			cfg[r] = int(v)
		}
		for _, p := range parents[1:] {
			l := s.levels[p]
			for r, v := range s.cols[p] {
				cfg[r] = cfg[r]*l + int(v)
			}
		}
		for r, v := range col {
			counts[cfg[r]*lv+int(v)]++
		}
	}
	ll := 0.0
	for c := 0; c < cfgs; c++ {
		row := counts[c*lv : (c+1)*lv]
		var total int32
		for _, k := range row {
			total += k
		}
		if total == 0 {
			continue
		}
		for _, k := range row {
			if k > 0 {
				ll += float64(k) * math.Log(float64(k)/float64(total))
			}
		}
	}
	penalty := 0.5 * s.logRows * float64(cfgs*(lv-1))
	return ll - penalty
}

// request is one family a hill-climbing step may ask for: its parents sit
// in the step's arena, and its score goes to slot.
type request struct {
	node       int
	code       uint64
	start, end int // the parents' span of the arena
	slot       int
}

// prefetch fills the step table with the score of every family the next
// move scan can ask for, for the stale nodes only: slot v*n+v holds
// node v's current family and slot v*n+u the family with u's membership
// in v's parent set toggled, where the toggle is a legal delete or add.
// Uncached families are scored on the worker pool, each wholly by one
// worker into its own index, then cached in request order.
func (s *scorer) prefetch(parents [][]int, stale []bool, maxParents int, table []float64) {
	n := len(parents)
	var reqs []request
	var arena []int
	add := func(node int, code uint64, start, slot int) {
		reqs = append(reqs, request{node: node, code: code, start: start, end: len(arena), slot: slot})
	}
	for v, ps := range parents {
		if !stale[v] {
			continue
		}
		stale[v] = false
		base := s.code(ps)
		start := len(arena)
		arena = append(arena, ps...)
		add(v, base, start, v*n+v)
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			start := len(arena)
			switch {
			case slices.Contains(ps, u):
				for _, p := range ps {
					if p != u {
						arena = append(arena, p)
					}
				}
				add(v, base-s.weight[u], start, v*n+u)
			case len(ps) < maxParents:
				i, _ := slices.BinarySearch(ps, u)
				arena = append(arena, ps[:i]...)
				arena = append(arena, u)
				arena = append(arena, ps[i:]...)
				add(v, base+s.weight[u], start, v*n+u)
			}
		}
	}
	var miss []int // indices into reqs
	for i, q := range reqs {
		if v, ok := s.cached(q.node, q.code, arena[q.start:q.end]); ok {
			table[q.slot] = v
		} else {
			miss = append(miss, i)
		}
	}
	scores := make([]float64, len(miss))
	parallel.For(s.workers, len(miss), func(w, i int) {
		q := reqs[miss[i]]
		scores[i] = s.score(q.node, arena[q.start:q.end], &s.bufs[w])
	})
	for i, r := range miss {
		q := reqs[r]
		s.store(q.node, q.code, arena[q.start:q.end], scores[i])
		table[q.slot] = scores[i]
	}
}

func totalScore(s *scorer, parents [][]int) float64 {
	t := 0.0
	for i := range parents {
		t += s.family(i, parents[i])
	}
	return t
}

// climb performs greedy hill climbing from the given parent sets until no
// move improves the score or the iteration cap is reached. Before each
// move scan, prefetch scores every family the scan can read for the
// nodes whose parent sets changed, so the scan itself reads a table.
func climb(s *scorer, start [][]int, opt LearnOptions) [][]int {
	n := len(start)
	parents := make([][]int, n)
	for i := range start {
		parents[i] = append([]int(nil), start[i]...)
		sort.Ints(parents[i])
	}
	table := make([]float64, n*n)
	stale := make([]bool, n)
	for i := range stale {
		stale[i] = true
	}
	cyc := newCycleTest(n)

	for iter := 0; iter < opt.MaxIters; iter++ {
		s.prefetch(parents, stale, opt.MaxParents, table)
		type move struct {
			kind     int // 0 add, 1 delete, 2 reverse
			from, to int
			delta    float64
		}
		var best move
		found := false

		consider := func(m move) {
			if !found || m.delta > best.delta {
				best, found = m, true
			}
		}

		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u == v {
					continue
				}
				hasEdge := slices.Contains(parents[v], u)
				switch {
				case !hasEdge:
					if len(parents[v]) >= opt.MaxParents || cyc.createsCycle(parents, u, v) {
						continue
					}
					delta := table[v*n+u] - table[v*n+v]
					consider(move{kind: 0, from: u, to: v, delta: delta})
				default:
					// Delete u→v.
					delta := table[v*n+u] - table[v*n+v]
					consider(move{kind: 1, from: u, to: v, delta: delta})
					// Reverse to v→u.
					if len(parents[u]) < opt.MaxParents && !cyc.reversalCreatesCycle(parents, u, v) {
						delta := table[v*n+u] - table[v*n+v] +
							table[u*n+v] - table[u*n+u]
						consider(move{kind: 2, from: u, to: v, delta: delta})
					}
				}
			}
		}

		if !found || best.delta <= 1e-9 {
			break
		}
		switch best.kind {
		case 0:
			parents[best.to] = withParent(parents[best.to], best.from)
		case 1:
			parents[best.to] = withoutParent(parents[best.to], best.from)
		case 2:
			parents[best.to] = withoutParent(parents[best.to], best.from)
			parents[best.from] = withParent(parents[best.from], best.to)
			stale[best.from] = true
		}
		stale[best.to] = true
	}
	return parents
}

func withParent(parents []int, p int) []int {
	out := append(append([]int(nil), parents...), p)
	sort.Ints(out)
	return out
}

func withoutParent(parents []int, p int) []int {
	out := make([]int, 0, len(parents)-1)
	for _, x := range parents {
		if x != p {
			out = append(out, x)
		}
	}
	return out
}

func copyParents(parents [][]int) [][]int {
	out := make([][]int, len(parents))
	for i := range parents {
		out[i] = append([]int(nil), parents[i]...)
	}
	return out
}

// cycleTest answers cycle queries on a DAG given by parent lists without
// allocating: its marks and stack are reused from query to query.
type cycleTest struct {
	mark  []uint32 // mark[x] == epoch once x is visited in this query
	epoch uint32
	stack []int
}

func newCycleTest(n int) *cycleTest {
	return &cycleTest{mark: make([]uint32, n)}
}

// createsCycle reports whether adding edge u→v to the DAG would create a
// cycle, i.e. whether u is reachable from v: whether walking parent
// links up from u reaches v.
func (c *cycleTest) createsCycle(parents [][]int, u, v int) bool {
	return c.reaches(parents, u, v, -1)
}

// reversalCreatesCycle reports whether reversing the DAG's edge u→v
// would create a cycle: whether adding v→u once u→v is gone does, i.e.
// whether walking parent links up from v, skipping its parent u, reaches
// u.
func (c *cycleTest) reversalCreatesCycle(parents [][]int, u, v int) bool {
	return c.reaches(parents, v, u, u)
}

// reaches reports whether walking parent links up from from reaches
// target, not following from's link to skip. No other node can lead
// back to from, since the graph is acyclic.
func (c *cycleTest) reaches(parents [][]int, from, target, skip int) bool {
	c.epoch++
	if c.epoch == 0 {
		clear(c.mark)
		c.epoch = 1
	}
	stack := append(c.stack[:0], from)
	found := false
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == target {
			found = true
			break
		}
		if c.mark[x] == c.epoch {
			continue
		}
		c.mark[x] = c.epoch
		for _, p := range parents[x] {
			if x != from || p != skip {
				stack = append(stack, p)
			}
		}
	}
	c.stack = stack
	return found
}
