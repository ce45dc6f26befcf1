package bayesnet

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := chain(t)
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != orig.NumNodes() {
		t.Fatalf("node count %d, want %d", back.NumNodes(), orig.NumNodes())
	}
	for i := range orig.Nodes {
		if back.Nodes[i].Name != orig.Nodes[i].Name || back.Nodes[i].Levels != orig.Nodes[i].Levels {
			t.Fatalf("node %d metadata mismatch", i)
		}
		if !reflect.DeepEqual(back.Nodes[i].Parents, orig.Nodes[i].Parents) {
			t.Fatalf("node %d parents %v, want %v", i, back.Nodes[i].Parents, orig.Nodes[i].Parents)
		}
		for k := range orig.Nodes[i].CPT {
			if math.Abs(back.Nodes[i].CPT[k]-orig.Nodes[i].CPT[k]) > 1e-12 {
				t.Fatalf("node %d CPT mismatch at %d", i, k)
			}
		}
	}
	// Inference must agree after the round trip.
	want := orig.Posterior(1, map[int]int{2: 1})
	got := back.Posterior(1, map[int]int{2: 1})
	if !distsClose(got, want, 1e-12) {
		t.Fatalf("posterior after round trip = %v, want %v", got, want)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		"not json",
		`{"nodes":[{"name":"A","levels":2,"cpt":[0.5]}]}`,                           // wrong CPT size
		`{"nodes":[{"name":"A","levels":2,"parents":[0],"cpt":[0.5,0.5,0.5,0.5]}]}`, // self-parent
		`{"nodes":[{"name":"A","levels":2,"parents":[5],"cpt":[0.5,0.5]}]}`,         // bad parent index
		`{"nodes":[{"name":"A","levels":2,"cpt":[0.7,0.7]}]}`,                       // unnormalised
	}
	for i, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted invalid network", i)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	n := chain(t)
	var buf bytes.Buffer
	if err := n.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph bayesnet", `label="A (2)"`, "n0 -> n1;", "n1 -> n2;"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestEdges(t *testing.T) {
	n := chain(t)
	want := [][2]int{{0, 1}, {1, 2}}
	if got := n.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestAnnealedFindsDependence(t *testing.T) {
	truth := MustNew([]Node{
		{Name: "X0", Levels: 2, CPT: []float64{0.5, 0.5}},
		{Name: "X1", Levels: 2, Parents: []int{0}, CPT: []float64{0.95, 0.05, 0.05, 0.95}},
		{Name: "X2", Levels: 2, CPT: []float64{0.5, 0.5}},
	})
	rng := rand.New(rand.NewSource(21))
	data := make([][]int, 4000)
	for i := range data {
		data[i] = truth.Sample(rng)
	}
	learned, err := LearnStructureAnnealed([]string{"X0", "X1", "X2"}, []int{2, 2, 2}, data, AnnealOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	connected := slices.Contains(learned.Nodes[1].Parents, 0) || slices.Contains(learned.Nodes[0].Parents, 1)
	if !connected {
		t.Error("annealed search missed the X0–X1 dependence")
	}
	if len(learned.Nodes[2].Parents) != 0 {
		t.Errorf("independent X2 learned parents %v", learned.Nodes[2].Parents)
	}
}

func TestAnnealedMatchesHillClimbingScore(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
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

	hc, err := LearnStructure(names, levels, data, LearnOptions{Rng: rand.New(rand.NewSource(23))})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := LearnStructureAnnealed(names, levels, data, AnnealOptions{Rng: rand.New(rand.NewSource(24)), Steps: 8000})
	if err != nil {
		t.Fatal(err)
	}

	sc, err := newScorer(names, levels, data, 1)
	if err != nil {
		t.Fatal(err)
	}
	scoreOf := func(n *Network) float64 {
		ps := make([][]int, len(n.Nodes))
		for i, nd := range n.Nodes {
			ps[i] = nd.Parents
		}
		return totalScore(sc, ps)
	}
	hcScore, saScore := scoreOf(hc), scoreOf(sa)
	// SA should land within a small margin of hill climbing on these
	// easy surfaces (either may win slightly).
	if saScore < hcScore-50 {
		t.Errorf("annealed score %v far below hill-climbing %v", saScore, hcScore)
	}
}

func TestAnnealedValidation(t *testing.T) {
	if _, err := LearnStructureAnnealed([]string{"A"}, []int{2, 2}, [][]int{{0}}, AnnealOptions{}); err == nil {
		t.Error("accepted mismatched names/levels")
	}
	if _, err := LearnStructureAnnealed([]string{"A"}, []int{2}, nil, AnnealOptions{}); err == nil {
		t.Error("accepted empty data")
	}
}
