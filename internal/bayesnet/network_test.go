package bayesnet

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// chain returns the network A → B → C with hand-picked CPTs, used across
// the tests.
func chain(t testing.TB) *Network {
	t.Helper()
	return MustNew([]Node{
		{Name: "A", Levels: 2, CPT: []float64{0.3, 0.7}},
		{Name: "B", Levels: 3, Parents: []int{0}, CPT: []float64{
			0.5, 0.3, 0.2, // A=0
			0.1, 0.2, 0.7, // A=1
		}},
		{Name: "C", Levels: 2, Parents: []int{1}, CPT: []float64{
			0.9, 0.1, // B=0
			0.5, 0.5, // B=1
			0.2, 0.8, // B=2
		}},
	})
}

func TestNewRejectsCycle(t *testing.T) {
	_, err := New([]Node{
		{Name: "A", Levels: 2, Parents: []int{1}, CPT: []float64{0.5, 0.5, 0.5, 0.5}},
		{Name: "B", Levels: 2, Parents: []int{0}, CPT: []float64{0.5, 0.5, 0.5, 0.5}},
	})
	if err == nil {
		t.Fatal("New accepted a cyclic graph")
	}
}

func TestNewRejectsSelfParent(t *testing.T) {
	_, err := New([]Node{
		{Name: "A", Levels: 2, Parents: []int{0}, CPT: []float64{0.5, 0.5, 0.5, 0.5}},
	})
	if err == nil {
		t.Fatal("New accepted a self-parent")
	}
}

func TestNewRejectsDuplicateParent(t *testing.T) {
	_, err := New([]Node{
		{Name: "A", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "B", Levels: 2, Parents: []int{0, 0}, CPT: []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}},
	})
	if err == nil {
		t.Fatal("New accepted a parent listed twice")
	}
}

func TestNewRejectsBadCPT(t *testing.T) {
	cases := []struct {
		name string
		node Node
	}{
		{"wrong size", Node{Name: "A", Levels: 2, CPT: []float64{1}}},
		{"unnormalised", Node{Name: "A", Levels: 2, CPT: []float64{0.5, 0.6}}},
		{"negative", Node{Name: "A", Levels: 2, CPT: []float64{1.5, -0.5}}},
		{"zero levels", Node{Name: "A", Levels: 0, CPT: nil}},
	}
	for _, tc := range cases {
		if _, err := New([]Node{tc.node}); err == nil {
			t.Errorf("New accepted CPT case %q", tc.name)
		}
	}
}

func TestTopoOrderParentsFirst(t *testing.T) {
	n := chain(t)
	pos := map[int]int{}
	for i, v := range n.TopoOrder() {
		pos[v] = i
	}
	for i, nd := range n.Nodes {
		for _, p := range nd.Parents {
			if pos[p] > pos[i] {
				t.Fatalf("parent %d after child %d in topo order", p, i)
			}
		}
	}
}

func TestJointSumsToOne(t *testing.T) {
	n := chain(t)
	sum := 0.0
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 2; c++ {
				sum += n.JointP([]int{a, b, c})
			}
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("joint sums to %v, want 1", sum)
	}
}

// bruteforcePosterior enumerates the full joint to compute P(target|evidence).
func bruteforcePosterior(n *Network, target int, evidence map[int]int) []float64 {
	dist := make([]float64, n.Nodes[target].Levels)
	assignment := make([]int, len(n.Nodes))
	var rec func(i int)
	rec = func(i int) {
		if i == len(n.Nodes) {
			dist[assignment[target]] += n.JointP(assignment)
			return
		}
		if v, ok := evidence[i]; ok {
			assignment[i] = v
			rec(i + 1)
			return
		}
		for v := 0; v < n.Nodes[i].Levels; v++ {
			assignment[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	sum := 0.0
	for _, p := range dist {
		sum += p
	}
	if sum == 0 {
		for v := range dist {
			dist[v] = 1 / float64(len(dist))
		}
		return dist
	}
	for v := range dist {
		dist[v] /= sum
	}
	return dist
}

func distsClose(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestPosteriorMatchesBruteForceOnChain(t *testing.T) {
	n := chain(t)
	cases := []struct {
		target   int
		evidence map[int]int
	}{
		{0, nil},
		{0, map[int]int{2: 1}},
		{0, map[int]int{1: 2, 2: 0}},
		{1, map[int]int{0: 1}},
		{1, map[int]int{0: 0, 2: 1}},
		{2, nil},
		{2, map[int]int{0: 1}},
	}
	for _, tc := range cases {
		got := n.Posterior(tc.target, tc.evidence)
		want := bruteforcePosterior(n, tc.target, tc.evidence)
		if !distsClose(got, want, 1e-9) {
			t.Errorf("Posterior(%d, %v) = %v, want %v", tc.target, tc.evidence, got, want)
		}
	}
}

// randomNetwork builds a random DAG with random CPTs for property testing.
func randomNetwork(rng *rand.Rand, nNodes, maxLevels int) *Network {
	nodes := make([]Node, nNodes)
	for i := range nodes {
		levels := 2 + rng.Intn(maxLevels-1)
		var parents []int
		for p := 0; p < i; p++ {
			if len(parents) < 3 && rng.Float64() < 0.4 {
				parents = append(parents, p)
			}
		}
		cfgs := 1
		for _, p := range parents {
			cfgs *= nodes[p].Levels
		}
		cpt := make([]float64, cfgs*levels)
		for c := 0; c < cfgs; c++ {
			sum := 0.0
			for v := 0; v < levels; v++ {
				cpt[c*levels+v] = rng.Float64() + 0.01
				sum += cpt[c*levels+v]
			}
			for v := 0; v < levels; v++ {
				cpt[c*levels+v] /= sum
			}
		}
		nodes[i] = Node{Name: string(rune('A' + i)), Levels: levels, Parents: parents, CPT: cpt}
	}
	return MustNew(nodes)
}

func TestPosteriorMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := randomNetwork(rng, 2+rng.Intn(5), 4)
		target := rng.Intn(n.NumNodes())
		evidence := map[int]int{}
		for i := range n.Nodes {
			if i != target && rng.Float64() < 0.5 {
				evidence[i] = rng.Intn(n.Nodes[i].Levels)
			}
		}
		got := n.Posterior(target, evidence)
		want := bruteforcePosterior(n, target, evidence)
		if !distsClose(got, want, 1e-9) {
			t.Fatalf("trial %d: Posterior(%d, %v) = %v, want %v", trial, target, evidence, got, want)
		}
		sum := 0.0
		for _, p := range got {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("trial %d: posterior sums to %v", trial, sum)
		}
	}
}

func TestPosteriorPanicsOnEvidenceTarget(t *testing.T) {
	n := chain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Posterior with target in evidence did not panic")
		}
	}()
	n.Posterior(0, map[int]int{0: 1})
}

func TestSampleMatchesMarginals(t *testing.T) {
	n := chain(t)
	rng := rand.New(rand.NewSource(7))
	const trials = 200000
	counts := make([]int, 3)
	for i := 0; i < trials; i++ {
		row := n.Sample(rng)
		counts[row[1]]++
	}
	want := bruteforcePosterior(n, 1, nil)
	for v := range counts {
		got := float64(counts[v]) / trials
		if math.Abs(got-want[v]) > 0.01 {
			t.Errorf("empirical P(B=%d) = %v, want %v", v, got, want[v])
		}
	}
}

func TestFitRecoversCPT(t *testing.T) {
	truth := chain(t)
	rng := rand.New(rand.NewSource(9))
	data := make([][]int, 50000)
	for i := range data {
		data[i] = truth.Sample(rng)
	}
	skeleton := make([]Node, len(truth.Nodes))
	for i, nd := range truth.Nodes {
		skeleton[i] = Node{Name: nd.Name, Levels: nd.Levels, Parents: nd.Parents}
	}
	fitted, err := Fit(skeleton, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth.Nodes {
		for k := range truth.Nodes[i].CPT {
			if math.Abs(fitted.Nodes[i].CPT[k]-truth.Nodes[i].CPT[k]) > 0.02 {
				t.Errorf("node %d CPT[%d] = %v, want ~%v", i, k, fitted.Nodes[i].CPT[k], truth.Nodes[i].CPT[k])
			}
		}
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	skeleton := []Node{{Name: "A", Levels: 2}}
	if _, err := Fit(skeleton, [][]int{{5}}, 1); err == nil {
		t.Error("Fit accepted out-of-domain value")
	}
	if _, err := Fit(skeleton, [][]int{{0, 1}}, 1); err == nil {
		t.Error("Fit accepted wrong-width row")
	}
	if _, err := Fit(skeleton, nil, -1); err == nil {
		t.Error("Fit accepted negative smoothing")
	}
}

func TestFitEmptyDataIsUniformWithSmoothing(t *testing.T) {
	skeleton := []Node{{Name: "A", Levels: 4}}
	n, err := Fit(skeleton, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if math.Abs(n.Nodes[0].CPT[v]-0.25) > 1e-12 {
			t.Fatalf("CPT = %v, want uniform", n.Nodes[0].CPT)
		}
	}
}

func TestLearnStructureFindsDependence(t *testing.T) {
	// Ground truth: X0 → X1 strongly dependent, X2 independent.
	truth := MustNew([]Node{
		{Name: "X0", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "X1", Levels: 2, Parents: []int{0}, CPT: []float64{0.95, 0.05, 0.05, 0.95}},
		{Name: "X2", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	rng := rand.New(rand.NewSource(11))
	data := make([][]int, 5000)
	for i := range data {
		data[i] = truth.Sample(rng)
	}
	learned, err := LearnStructure([]string{"X0", "X1", "X2"}, []int{2, 2, 2}, data, LearnOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	// X0 and X1 must be connected (either direction scores identically);
	// X2 must stay isolated.
	connected := slices.Contains(learned.Nodes[1].Parents, 0) || slices.Contains(learned.Nodes[0].Parents, 1)
	if !connected {
		t.Error("learned structure misses the X0–X1 dependence")
	}
	if len(learned.Nodes[2].Parents) != 0 {
		t.Errorf("independent X2 learned parents %v", learned.Nodes[2].Parents)
	}
	for i, nd := range learned.Nodes {
		if slices.Contains(nd.Parents, 2) {
			t.Errorf("node %d has independent X2 as parent", i)
		}
	}
}

func TestLearnStructureErrors(t *testing.T) {
	if _, err := LearnStructure([]string{"A"}, []int{2, 2}, [][]int{{0}}, LearnOptions{}); err == nil {
		t.Error("LearnStructure accepted mismatched names/levels")
	}
	if _, err := LearnStructure([]string{"A"}, []int{2}, nil, LearnOptions{}); err == nil {
		t.Error("LearnStructure accepted empty data")
	}
}

func TestLearnedScoreAtLeastEmptyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	truth := randomNetwork(rng, 5, 3)
	data := make([][]int, 3000)
	for i := range data {
		data[i] = truth.Sample(rng)
	}
	levels := truth.Levels()
	names := make([]string, len(levels))
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	learned, err := LearnStructure(names, levels, data, LearnOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := newScorer(names, levels, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	learnedParents := make([][]int, len(levels))
	for i, nd := range learned.Nodes {
		learnedParents[i] = nd.Parents
	}
	if totalScore(sc, learnedParents) < totalScore(sc, emptyParents(len(levels)))-1e-9 {
		t.Error("learned structure scores worse than the empty graph")
	}
}

func TestCreatesCycle(t *testing.T) {
	// 0 → 1 → 2 exists; adding 2 → 0 must be detected as a cycle,
	// adding 0 → 2 must not.
	parents := [][]int{{}, {0}, {1}}
	cyc := newCycleTest(3)
	if !cyc.createsCycle(parents, 2, 0) {
		t.Error("2→0 not flagged as cycle")
	}
	if cyc.createsCycle(parents, 0, 2) {
		t.Error("0→2 wrongly flagged as cycle")
	}
}

func BenchmarkPosterior11Nodes(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := randomNetwork(rng, 11, 6)
	evidence := map[int]int{0: 1, 3: 0, 7: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Posterior(5, evidence)
	}
}

func BenchmarkSample(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := randomNetwork(rng, 11, 6)
	out := make([]int, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.SampleInto(rng, out)
	}
}

func TestPosteriorImpossibleEvidenceUniform(t *testing.T) {
	// B = 1 is impossible when A = 0 (zero CPT entry); conditioning a
	// third variable on that evidence must fall back to uniform rather
	// than divide by zero.
	n := MustNew([]Node{
		{Name: "A", Levels: 2, CPT: []float64{1, 0}}, // A is always 0
		{Name: "B", Levels: 2, Parents: []int{0}, CPT: []float64{
			1, 0, // A=0: B always 0
			0, 1, // A=1: B always 1
		}},
		{Name: "C", Levels: 3, CPT: []float64{0.2, 0.3, 0.5}},
	})
	got := n.Posterior(2, map[int]int{1: 1}) // evidence B=1: probability 0
	for v, p := range got {
		if math.Abs(p-1.0/3.0) > 1e-9 {
			t.Fatalf("Posterior under impossible evidence = %v (entry %d), want uniform", got, v)
		}
	}
}

func TestSampleIntoWrongLengthPanics(t *testing.T) {
	n := chain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SampleInto with wrong-length slice did not panic")
		}
	}()
	n.SampleInto(rand.New(rand.NewSource(1)), make([]int, 1))
}

func TestJointPWrongLengthPanics(t *testing.T) {
	n := chain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("JointP with wrong-length assignment did not panic")
		}
	}()
	n.JointP([]int{0})
}

func TestPosteriorBadEvidencePanics(t *testing.T) {
	n := chain(t)
	for _, evidence := range []map[int]int{{1: 3}, {1: -1}, {5: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Posterior with evidence %v outside the network did not panic", evidence)
				}
			}()
			n.Posterior(0, evidence)
		}()
	}
}

func TestPosteriorBadTargetPanics(t *testing.T) {
	n := chain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Posterior with out-of-range target did not panic")
		}
	}()
	n.Posterior(99, nil)
}

// TestPosteriorConcurrent calls Posterior from several goroutines at
// once on one freshly built network. Under -race it fails if inference
// writes shared network state; every caller must get the bits a twin
// network gives on its own.
func TestPosteriorConcurrent(t *testing.T) {
	n := randomNetwork(rand.New(rand.NewSource(7)), 9, 5)
	evidence := map[int]int{0: 1, 7: 0}
	want := randomNetwork(rand.New(rand.NewSource(7)), 9, 5).Posterior(4, evidence)
	got := make([][]float64, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = n.Posterior(4, evidence)
		}()
	}
	wg.Wait()
	for g, dist := range got {
		for v := range dist {
			if math.Float64bits(dist[v]) != math.Float64bits(want[v]) {
				t.Fatalf("goroutine %d: Posterior = %v, want %v", g, dist, want)
			}
		}
	}
}
