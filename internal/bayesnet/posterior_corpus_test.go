package bayesnet_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/dataset"
)

// Posterior answers to a frozen corpus, not approximately: every float
// must match bit for bit. testdata/posterior_corpus.txt holds the
// math.Float64bits of the original variable-elimination kernel's outputs
// (per-entry decoding, one restrict pass per evidence variable) on the
// seeded inputs generated below, so the stride kernels stay pinned to it.
// The corpus has no update flag: it records a kernel, not the code it
// checks, and cannot be regenerated from that code. Every case carries
// an FNV-1a key over its inputs (the network's structure and CPT bits,
// the target and the evidence), so a change to an input generator fails
// loudly instead of comparing other inputs against the recorded floats.

const posteriorCorpusPath = "testdata/posterior_corpus.txt"

// posteriorCase is one corpus line: the key of the case's inputs and the
// Float64bits of the posterior on them.
type posteriorCase struct {
	key  uint64
	bits []uint64
}

// corpusSections lists the corpus sections in file order with the
// generator of each.
var corpusSections = []struct {
	name string
	gen  func() []posteriorCase
}{
	{"random", randomCorpusCases},
	{"nba", func() []posteriorCase {
		return datasetCorpusCases(dataset.NBANet(), dataset.GenNBA, 2)
	}},
	{"adult", func() []posteriorCase {
		return datasetCorpusCases(dataset.AdultNet(), dataset.GenAdultSynthetic, 3)
	}},
}

// corpusNetwork draws a random network for the corpus: 3 to 11 nodes of
// 2 to 8 levels, each with at most three parents listed in random order,
// and CPT rows in which about one entry in ten is exactly zero, so that
// some evidence is impossible and takes the uniform fallback.
func corpusNetwork(rng *rand.Rand) *bayesnet.Network {
	nodes := make([]bayesnet.Node, 3+rng.Intn(9))
	for i := range nodes {
		levels := 2 + rng.Intn(7)
		var parents []int
		for _, p := range rng.Perm(i) {
			if len(parents) < 3 && rng.Float64() < 0.35 {
				parents = append(parents, p)
			}
		}
		cfgs := 1
		for _, p := range parents {
			cfgs *= nodes[p].Levels
		}
		cpt := make([]float64, cfgs*levels)
		for c := 0; c < cfgs; c++ {
			row := cpt[c*levels : (c+1)*levels]
			sum := 0.0
			for v := range row {
				if rng.Float64() >= 0.1 {
					row[v] = rng.Float64() + 0.01
				}
				sum += row[v]
			}
			if sum == 0 {
				row[rng.Intn(levels)], sum = 1, 1
			}
			for v := range row {
				row[v] /= sum
			}
		}
		nodes[i] = bayesnet.Node{Name: fmt.Sprintf("n%d", i), Levels: levels, Parents: parents, CPT: cpt}
	}
	return bayesnet.MustNew(nodes)
}

// randomCorpusCases queries 100 random networks four times each, every
// time with a random target and each other node observed with
// probability one half.
func randomCorpusCases() []posteriorCase {
	rng := rand.New(rand.NewSource(1))
	var out []posteriorCase
	for k := 0; k < 100; k++ {
		net := corpusNetwork(rng)
		for q := 0; q < 4; q++ {
			target := rng.Intn(net.NumNodes())
			evidence := map[int]int{}
			for i := range net.Nodes {
				if i != target && rng.Float64() < 0.5 {
					evidence[i] = rng.Intn(net.Nodes[i].Levels)
				}
			}
			out = append(out, posteriorCorpusCase(net, target, evidence))
		}
	}
	return out
}

// datasetCorpusCases queries net for the first 200 missing cells of
// rows generated from it with 30% of the cells hidden, each given its
// row's observed cells — the shape of the preprocessing workload.
func datasetCorpusCases(net *bayesnet.Network, gen func(*rand.Rand, int) *dataset.Dataset, seed int64) []posteriorCase {
	rng := rand.New(rand.NewSource(seed))
	d := gen(rng, 200).InjectMissing(rng, 0.3)
	var out []posteriorCase
	for i := range d.Objects {
		evidence := map[int]int{}
		for j, c := range d.Objects[i].Cells {
			if !c.Missing {
				evidence[j] = c.Value
			}
		}
		for j, c := range d.Objects[i].Cells {
			if c.Missing && len(out) < 200 {
				out = append(out, posteriorCorpusCase(net, j, evidence))
			}
		}
	}
	return out
}

// posteriorCorpusCase evaluates one query and keys it by its inputs.
func posteriorCorpusCase(net *bayesnet.Network, target int, evidence map[int]int) posteriorCase {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(net.NumNodes()))
	for _, nd := range net.Nodes {
		buf = binary.AppendUvarint(buf, uint64(nd.Levels))
		buf = binary.AppendUvarint(buf, uint64(len(nd.Parents)))
		for _, p := range nd.Parents {
			buf = binary.AppendUvarint(buf, uint64(p))
		}
		for _, p := range nd.CPT {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(target))
	for i := range net.Nodes {
		v, ok := evidence[i]
		if !ok {
			v = -1
		}
		buf = binary.AppendUvarint(buf, uint64(v+1))
	}
	h := fnv.New64a()
	h.Write(buf)
	c := posteriorCase{key: h.Sum64()}
	for _, p := range net.Posterior(target, evidence) {
		c.bits = append(c.bits, math.Float64bits(p))
	}
	return c
}

// loadPosteriorCorpus returns one section of the corpus file. A line
// reads "<section> <index> <input key> <output bits>...", all numbers but
// the index in hex; '#' starts a comment line.
func loadPosteriorCorpus(t *testing.T, section string) []posteriorCase {
	t.Helper()
	data, err := os.ReadFile(posteriorCorpusPath)
	if err != nil {
		t.Fatalf("loading the posterior corpus: %v", err)
	}
	var out []posteriorCase
	for n, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != section {
			continue
		}
		if len(fields) < 4 || fields[1] != strconv.Itoa(len(out)) {
			t.Fatalf("%s:%d: malformed or out-of-sequence corpus line", posteriorCorpusPath, n+1)
		}
		var c posteriorCase
		for i, hex := range fields[2:] {
			u, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				t.Fatalf("%s:%d: %v", posteriorCorpusPath, n+1, err)
			}
			if i == 0 {
				c.key = u
			} else {
				c.bits = append(c.bits, u)
			}
		}
		out = append(out, c)
	}
	return out
}

func TestPosteriorCorpus(t *testing.T) {
	for _, s := range corpusSections {
		t.Run(s.name, func(t *testing.T) {
			got, want := s.gen(), loadPosteriorCorpus(t, s.name)
			if len(got) != len(want) {
				t.Fatalf("%d cases computed, the corpus holds %d: an input generator changed", len(got), len(want))
			}
			for i := range got {
				if got[i].key != want[i].key {
					t.Fatalf("case %d: input key %016x, the corpus recorded %016x: an input generator changed",
						i, got[i].key, want[i].key)
				}
				if !slices.Equal(got[i].bits, want[i].bits) {
					t.Fatalf("case %d: Posterior returned %x, the corpus holds %x", i, got[i].bits, want[i].bits)
				}
			}
		})
	}
}
