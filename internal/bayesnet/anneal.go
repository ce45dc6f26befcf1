package bayesnet

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
)

// AnnealOptions tunes simulated-annealing structure search.
type AnnealOptions struct {
	// MaxParents caps the in-degree of every node (default 3).
	MaxParents int
	// Steps is the number of annealing proposals (default 5000).
	Steps int
	// StartTemp and EndTemp bracket the geometric cooling schedule
	// (defaults 2.0 → 0.01, in units of BIC score).
	StartTemp, EndTemp float64
	// Alpha is the Laplace smoothing for the final CPT fit (default 1).
	Alpha float64
	// Rng drives proposals; defaults to a fixed seed.
	Rng *rand.Rand
}

func (o AnnealOptions) withDefaults() AnnealOptions {
	if o.MaxParents == 0 {
		o.MaxParents = 3
	}
	if o.Steps == 0 {
		o.Steps = 5000
	}
	if o.StartTemp == 0 {
		o.StartTemp = 2.0
	}
	if o.EndTemp == 0 {
		o.EndTemp = 0.01
	}
	if o.Alpha == 0 {
		o.Alpha = 1
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	return o
}

// LearnStructureAnnealed searches DAG space by simulated annealing over
// add/delete/reverse edge moves with the BIC score — the search mode
// Banjo is best known for, complementing the greedy hill climbing of
// LearnStructure. Both find equivalent structures on the small networks
// BayesCrowd uses; the annealed search escapes local optima on harder
// score surfaces at higher cost.
func LearnStructureAnnealed(names []string, levels []int, data [][]int, opt AnnealOptions) (*Network, error) {
	if len(names) != len(levels) {
		return nil, fmt.Errorf("bayesnet: %d names for %d levels", len(names), len(levels))
	}
	opt = opt.withDefaults()
	n := len(names)
	sc, err := newScorer(names, levels, data, 1)
	if err != nil {
		return nil, err
	}
	cyc := newCycleTest(n)

	parents := emptyParents(n)
	current := totalScore(sc, parents)
	bestParents := copyParents(parents)
	best := current

	cool := math.Pow(opt.EndTemp/opt.StartTemp, 1/float64(opt.Steps))
	temp := opt.StartTemp

	for step := 0; step < opt.Steps; step++ {
		u := opt.Rng.Intn(n)
		v := opt.Rng.Intn(n)
		if u == v {
			temp *= cool
			continue
		}

		// Propose a random legal move on edge u→v and compute its delta
		// from the decomposable score.
		var apply func()
		var delta float64
		switch {
		case slices.Contains(parents[v], u):
			if opt.Rng.Intn(2) == 0 {
				// Delete u→v.
				delta = sc.family(v, withoutParent(parents[v], u)) - sc.family(v, parents[v])
				apply = func() { parents[v] = withoutParent(parents[v], u) }
			} else {
				// Reverse to v→u.
				if len(parents[u]) >= opt.MaxParents {
					temp *= cool
					continue
				}
				if cyc.reversalCreatesCycle(parents, u, v) {
					temp *= cool
					continue
				}
				delta = sc.family(v, withoutParent(parents[v], u)) - sc.family(v, parents[v]) +
					sc.family(u, withParent(parents[u], v)) - sc.family(u, parents[u])
				apply = func() {
					parents[v] = withoutParent(parents[v], u)
					parents[u] = withParent(parents[u], v)
				}
			}
		default:
			// Add u→v.
			if len(parents[v]) >= opt.MaxParents || cyc.createsCycle(parents, u, v) {
				temp *= cool
				continue
			}
			delta = sc.family(v, withParent(parents[v], u)) - sc.family(v, parents[v])
			apply = func() { parents[v] = withParent(parents[v], u) }
		}

		// Metropolis acceptance.
		if delta >= 0 || opt.Rng.Float64() < math.Exp(delta/temp) {
			apply()
			current += delta
			if current > best {
				best = current
				bestParents = copyParents(parents)
			}
		}
		temp *= cool
	}

	nodes := make([]Node, n)
	for i := range nodes {
		sort.Ints(bestParents[i])
		nodes[i] = Node{Name: names[i], Levels: levels[i], Parents: bestParents[i]}
	}
	return Fit(nodes, data, opt.Alpha)
}
