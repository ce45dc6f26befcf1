package bayesnet

import (
	"math/rand"
	"testing"
)

// createsCycleReference is the cycle test the learner used before it
// stopped allocating: rebuild every child list, then search the children
// of v for u.
func createsCycleReference(parents [][]int, u, v int) bool {
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

// TestCreatesCycleMatchesReference asks both cycle tests every add query
// (u→v for all u ≠ v, and u = v) and every reversal query (each edge of
// the DAG) on 2000 random DAGs of 2 to 9 nodes, reversing edges through
// the reference's copy-and-delete path.
func TestCreatesCycleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 2000; k++ {
		n := 2 + rng.Intn(8)
		parents := randomDAG(rng, n, 1+rng.Intn(n))
		cyc := newCycleTest(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, want := cyc.createsCycle(parents, u, v), createsCycleReference(parents, u, v); got != want {
					t.Fatalf("DAG %v: createsCycle(%d→%d) = %v, the reference says %v", parents, u, v, got, want)
				}
			}
			for _, v := range childrenOf(parents, u) {
				trial := copyParents(parents)
				trial[v] = withoutParent(trial[v], u)
				if got, want := cyc.reversalCreatesCycle(parents, u, v), createsCycleReference(trial, v, u); got != want {
					t.Fatalf("DAG %v: reversing %d→%d creates a cycle: %v, the reference says %v", parents, u, v, got, want)
				}
			}
		}
	}
}

func childrenOf(parents [][]int, u int) []int {
	var out []int
	for c, ps := range parents {
		for _, p := range ps {
			if p == u {
				out = append(out, c)
			}
		}
	}
	return out
}

// TestCycleTestEpochWrap checks that the visit marks survive the epoch
// counter wrapping to zero.
func TestCycleTestEpochWrap(t *testing.T) {
	parents := [][]int{{}, {0}, {1}}
	cyc := newCycleTest(3)
	cyc.epoch = ^uint32(0) - 1
	for i := 0; i < 4; i++ {
		if !cyc.createsCycle(parents, 2, 0) || cyc.createsCycle(parents, 0, 2) {
			t.Fatalf("query %d around the epoch wrap answered wrongly", i)
		}
	}
}

// TestScorerCodesCollide stores two parent sets of one node under the
// same code, as can happen in networks of more than 64 nodes, where
// codes are hashes, and checks that each reads back its own score.
func TestScorerCodesCollide(t *testing.T) {
	levels := make([]int, 70)
	names := make([]string, 70)
	row := make([]int, 70)
	for i := range levels {
		levels[i], names[i] = 2, "x"
	}
	s, err := newScorer(names, levels, [][]int{row}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.weight[1] == 1<<1 || s.weight[65] == 0 {
		t.Fatalf("a 70-node scorer weighs parents %x, %x: want hashed weights", s.weight[1], s.weight[65])
	}
	s.store(3, 42, []int{1, 65}, -1.5)
	s.store(3, 42, []int{2}, -2.5)
	for _, c := range []struct {
		parents []int
		want    float64
		ok      bool
	}{{[]int{1, 65}, -1.5, true}, {[]int{2}, -2.5, true}, {[]int{1}, 0, false}, {nil, 0, false}} {
		if got, ok := s.cached(3, 42, c.parents); got != c.want || ok != c.ok {
			t.Errorf("cached(3, 42, %v) = %v, %v; want %v, %v", c.parents, got, ok, c.want, c.ok)
		}
	}
	if _, ok := s.cached(4, 42, []int{2}); ok {
		t.Error("a family of node 4 hit node 3's entry")
	}
}

// TestScorerRejectsBadRows checks that rows are validated before any
// scoring, with Fit's messages.
func TestScorerRejectsBadRows(t *testing.T) {
	names, levels := []string{"A", "B"}, []int{2, 3}
	for _, data := range [][][]int{{{0}}, {{0, 3}}, {{-1, 0}}} {
		if _, err := LearnStructure(names, levels, data, LearnOptions{}); err == nil {
			t.Errorf("LearnStructure accepted rows %v", data)
		}
	}
}
