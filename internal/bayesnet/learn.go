package bayesnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
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
	if len(data) == 0 {
		return nil, fmt.Errorf("bayesnet: no training data")
	}
	opt = opt.withDefaults()
	n := len(names)

	sc := &scorer{data: data, levels: levels, cache: map[string]float64{}}

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

// scorer computes and caches per-family BIC scores.
type scorer struct {
	data   [][]int
	levels []int
	cache  map[string]float64
}

func familyKey(node int, parents []int) string {
	key := fmt.Sprintf("%d|", node)
	for _, p := range parents {
		key += fmt.Sprintf("%d,", p)
	}
	return key
}

// family returns the BIC score of node given the (sorted) parent set:
// log-likelihood of the column minus the BIC complexity penalty.
func (s *scorer) family(node int, parents []int) float64 {
	key := familyKey(node, parents)
	if v, ok := s.cache[key]; ok {
		return v
	}
	cfgs := 1
	for _, p := range parents {
		cfgs *= s.levels[p]
	}
	lv := s.levels[node]
	counts := make([]float64, cfgs*lv)
	cfgTotals := make([]float64, cfgs)
	for _, row := range s.data {
		cfg := 0
		for _, p := range parents {
			cfg = cfg*s.levels[p] + row[p]
		}
		counts[cfg*lv+row[node]]++
		cfgTotals[cfg]++
	}
	ll := 0.0
	for c := 0; c < cfgs; c++ {
		if cfgTotals[c] == 0 {
			continue
		}
		for v := 0; v < lv; v++ {
			if k := counts[c*lv+v]; k > 0 {
				ll += k * math.Log(k/cfgTotals[c])
			}
		}
	}
	penalty := 0.5 * math.Log(float64(len(s.data))) * float64(cfgs*(lv-1))
	score := ll - penalty
	s.cache[key] = score
	return score
}

func totalScore(s *scorer, parents [][]int) float64 {
	t := 0.0
	for i := range parents {
		t += s.family(i, parents[i])
	}
	return t
}

// climb performs greedy hill climbing from the given parent sets until no
// move improves the score or the iteration cap is reached.
func climb(s *scorer, start [][]int, opt LearnOptions) [][]int {
	n := len(start)
	parents := make([][]int, n)
	for i := range start {
		parents[i] = append([]int(nil), start[i]...)
		sort.Ints(parents[i])
	}

	for iter := 0; iter < opt.MaxIters; iter++ {
		type move struct {
			kind     int // 0 add, 1 delete, 2 reverse
			from, to int
			delta    float64
		}
		var best *move

		consider := func(m move) {
			if best == nil || m.delta > best.delta {
				mm := m
				best = &mm
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
					if len(parents[v]) >= opt.MaxParents || createsCycle(parents, u, v) {
						continue
					}
					delta := s.family(v, withParent(parents[v], u)) - s.family(v, parents[v])
					consider(move{kind: 0, from: u, to: v, delta: delta})
				default:
					// Delete u→v.
					delta := s.family(v, withoutParent(parents[v], u)) - s.family(v, parents[v])
					consider(move{kind: 1, from: u, to: v, delta: delta})
					// Reverse to v→u.
					if len(parents[u]) < opt.MaxParents {
						trial := copyParents(parents)
						trial[v] = withoutParent(trial[v], u)
						if !createsCycle(trial, v, u) {
							delta := s.family(v, withoutParent(parents[v], u)) - s.family(v, parents[v]) +
								s.family(u, withParent(parents[u], v)) - s.family(u, parents[u])
							consider(move{kind: 2, from: u, to: v, delta: delta})
						}
					}
				}
			}
		}

		if best == nil || best.delta <= 1e-9 {
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
		}
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

// createsCycle reports whether adding edge u→v to the DAG would create a
// cycle, i.e. whether u is reachable from v.
func createsCycle(parents [][]int, u, v int) bool {
	n := len(parents)
	children := make([][]int, n)
	for c, ps := range parents {
		for _, p := range ps {
			children[p] = append(children[p], c)
		}
	}
	seen := make([]bool, n)
	stack := []int{v}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == u {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, children[x]...)
	}
	return false
}
