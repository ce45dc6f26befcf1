package bayesnet_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"

	"bayescrowd/internal/bayesnet"
	"bayescrowd/internal/dataset"
)

// Structure learning reproduces a frozen corpus, not approximately:
// every learned parent set must match, and every CPT entry bit for bit.
// testdata/learn_corpus.txt was recorded by the string-keyed,
// single-goroutine hill climber and annealer on the seeded inputs
// generated below, so the learner stays pinned to the networks they
// found. The corpus has no update flag: it records a learner, not the
// code it checks, and cannot be regenerated from that code. Every case
// carries an FNV-1a key over its inputs (levels, options and rows), so a
// change to an input generator fails loudly instead of comparing other
// inputs against the recorded networks.

const learnCorpusPath = "testdata/learn_corpus.txt"

// learnCase is one learning problem: the schema, the training rows and
// the search that runs on them.
type learnCase struct {
	levels []int
	rows   [][]int
	// hill is non-nil for a hill-climbing case, anneal for an annealed one.
	hill   *bayesnet.LearnOptions
	anneal *bayesnet.AnnealOptions
	seed   int64 // seeds the search's Rng
}

// learnCorpusSections lists the corpus sections in file order with the
// generator of each.
var learnCorpusSections = []struct {
	name string
	gen  func() []learnCase
}{
	{"nba", nbaLearnCases},
	{"adult", adultLearnCases},
	{"random", randomLearnCases},
	{"wide", wideLearnCases},
	{"anneal", annealLearnCases},
}

// datasetLearnCase learns on the complete rows of n generated rows with
// the given share of cells hidden, as preprocessing does, under the
// default options.
func datasetLearnCase(gen func(*rand.Rand, int) *dataset.Dataset, n int, missing float64, seed int64) learnCase {
	rng := rand.New(rand.NewSource(seed))
	d := gen(rng, n).InjectMissing(rng, missing)
	_, levels := d.Schema()
	return learnCase{levels: levels, rows: d.CompleteRows(), hill: &bayesnet.LearnOptions{}, seed: 1}
}

// nbaLearnCases is GenNBA at n ∈ {1000, 2000, 10000} × seeds 1–3 with
// 10% of the cells missing.
func nbaLearnCases() []learnCase {
	var out []learnCase
	for _, n := range []int{1000, 2000, 10000} {
		for seed := int64(1); seed <= 3; seed++ {
			out = append(out, datasetLearnCase(dataset.GenNBA, n, 0.1, seed))
		}
	}
	return out
}

// adultLearnCases is GenAdultSynthetic at n = 5000 × seeds 1–3 with 20%
// of the cells missing.
func adultLearnCases() []learnCase {
	var out []learnCase
	for seed := int64(1); seed <= 3; seed++ {
		out = append(out, datasetLearnCase(dataset.GenAdultSynthetic, 5000, 0.2, seed))
	}
	return out
}

// sampleRows draws n rows from net.
func sampleRows(rng *rand.Rand, net *bayesnet.Network, n int) [][]int {
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = net.Sample(rng)
	}
	return rows
}

// denseNetwork draws a random network with strong dependences: 4 to 9
// nodes of 2 or 3 levels, each with up to three earlier parents, and CPT
// rows that put most of their mass on one value, so that searches over
// its samples run into their in-degree caps and local optima.
func denseNetwork(rng *rand.Rand) *bayesnet.Network {
	nodes := make([]bayesnet.Node, 4+rng.Intn(6))
	for i := range nodes {
		levels := 2 + rng.Intn(2)
		var parents []int
		for _, p := range rng.Perm(i) {
			if len(parents) < 3 && rng.Float64() < 0.6 {
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
				row[v] = 0.05 + 0.2*rng.Float64()
				sum += row[v]
			}
			row[rng.Intn(levels)] += 1.5
			sum += 1.5
			for v := range row {
				row[v] /= sum
			}
		}
		nodes[i] = bayesnet.Node{Name: fmt.Sprintf("d%d", i), Levels: levels, Parents: parents, CPT: cpt}
	}
	return bayesnet.MustNew(nodes)
}

// randomLearnCases learns 40 dense random networks from 200 to 2000
// sampled rows each, under in-degree caps of 1 to 3, iteration caps of 2,
// 4, 8 or 200 and one to four restarts.
func randomLearnCases() []learnCase {
	rng := rand.New(rand.NewSource(7))
	var out []learnCase
	for k := 0; k < 40; k++ {
		net := denseNetwork(rng)
		rows := sampleRows(rng, net, 200+rng.Intn(1801))
		opt := &bayesnet.LearnOptions{
			MaxParents: 1 + rng.Intn(3),
			Restarts:   1 + rng.Intn(4),
			MaxIters:   []int{2, 4, 8, 200}[rng.Intn(4)],
		}
		out = append(out, learnCase{levels: net.Levels(), rows: rows, hill: opt, seed: int64(k + 1)})
	}
	return out
}

// wideNetwork is a chain of width nodes with 2 or 3 levels, each a noisy
// copy of its predecessor, so that a search over it adds many edges.
func wideNetwork(rng *rand.Rand, width int) *bayesnet.Network {
	nodes := make([]bayesnet.Node, width)
	for i := range nodes {
		levels := 2 + rng.Intn(2)
		nd := bayesnet.Node{Name: fmt.Sprintf("w%d", i), Levels: levels}
		cfgs := 1
		if i > 0 {
			nd.Parents = []int{i - 1}
			cfgs = nodes[i-1].Levels
		}
		for c := 0; c < cfgs; c++ {
			for v := 0; v < levels; v++ {
				p := 0.2 / float64(levels)
				if v == c%levels {
					p += 0.8
				}
				nd.CPT = append(nd.CPT, p)
			}
		}
		nodes[i] = nd
	}
	return bayesnet.MustNew(nodes)
}

// wideLearnCases learns networks of more than 64 nodes (70 and 130), past
// the width of a one-word parent bitmask.
func wideLearnCases() []learnCase {
	rng := rand.New(rand.NewSource(11))
	var out []learnCase
	for k, width := range []int{70, 130} {
		net := wideNetwork(rng, width)
		rows := sampleRows(rng, net, 150)
		opt := &bayesnet.LearnOptions{MaxParents: 2, Restarts: 1, MaxIters: 6}
		out = append(out, learnCase{levels: net.Levels(), rows: rows, hill: opt, seed: int64(k + 1)})
	}
	return out
}

// annealLearnCases runs LearnStructureAnnealed on 6 dense random
// networks with 2000 proposals each.
func annealLearnCases() []learnCase {
	rng := rand.New(rand.NewSource(13))
	var out []learnCase
	for k := 0; k < 6; k++ {
		net := denseNetwork(rng)
		rows := sampleRows(rng, net, 200+rng.Intn(801))
		opt := &bayesnet.AnnealOptions{MaxParents: 1 + rng.Intn(3), Steps: 2000}
		out = append(out, learnCase{levels: net.Levels(), rows: rows, anneal: opt, seed: int64(k + 1)})
	}
	return out
}

// key is the FNV-1a hash of the case's inputs: levels, search kind and
// options, the search seed, then every row.
func (c learnCase) key() uint64 {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(len(c.levels)))
	for _, l := range c.levels {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	if c.hill != nil {
		buf = append(buf, 'h')
		for _, v := range []int{c.hill.MaxParents, c.hill.Restarts, c.hill.MaxIters} {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	} else {
		buf = append(buf, 'a')
		for _, v := range []int{c.anneal.MaxParents, c.anneal.Steps} {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(c.seed))
	buf = binary.AppendUvarint(buf, uint64(len(c.rows)))
	for _, row := range c.rows {
		for _, v := range row {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// learn runs the case's search with the given number of workers.
func (c learnCase) learn(workers int) (*bayesnet.Network, error) {
	names := make([]string, len(c.levels))
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
	}
	rng := rand.New(rand.NewSource(c.seed))
	if c.hill != nil {
		opt := *c.hill
		opt.Rng, opt.Workers = rng, workers
		return bayesnet.LearnStructure(names, c.levels, c.rows, opt)
	}
	opt := *c.anneal
	opt.Rng = rng
	return bayesnet.LearnStructureAnnealed(names, c.levels, c.rows, opt)
}

// learnedNetwork is one corpus line's record of a network: every node's
// parents, written "p,p,..." and "-" when there are none, joined by "/",
// and the FNV-1a hash of every CPT entry's Float64bits in node order.
type learnedNetwork struct {
	key     uint64
	parents string
	cpt     uint64
}

func recordNetwork(key uint64, net *bayesnet.Network) learnedNetwork {
	sets := make([]string, len(net.Nodes))
	var buf []byte
	for i, nd := range net.Nodes {
		ps := make([]string, len(nd.Parents))
		for j, p := range nd.Parents {
			ps[j] = strconv.Itoa(p)
		}
		sets[i] = strings.Join(ps, ",")
		if sets[i] == "" {
			sets[i] = "-"
		}
		for _, p := range nd.CPT {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return learnedNetwork{key: key, parents: strings.Join(sets, "/"), cpt: h.Sum64()}
}

// loadLearnCorpus returns one section of the corpus file. A line reads
// "<section> <index> <input key> <parents> <cpt hash>", the key and hash
// in hex; '#' starts a comment line.
func loadLearnCorpus(t *testing.T, section string) []learnedNetwork {
	t.Helper()
	data, err := os.ReadFile(learnCorpusPath)
	if err != nil {
		t.Fatalf("loading the learn corpus: %v", err)
	}
	var out []learnedNetwork
	for n, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != section {
			continue
		}
		if len(fields) != 5 || fields[1] != strconv.Itoa(len(out)) {
			t.Fatalf("%s:%d: malformed or out-of-sequence corpus line", learnCorpusPath, n+1)
		}
		key, err1 := strconv.ParseUint(fields[2], 16, 64)
		cpt, err2 := strconv.ParseUint(fields[4], 16, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s:%d: malformed hex field", learnCorpusPath, n+1)
		}
		out = append(out, learnedNetwork{key: key, parents: fields[3], cpt: cpt})
	}
	return out
}

func TestLearnCorpus(t *testing.T) {
	for _, s := range learnCorpusSections {
		t.Run(s.name, func(t *testing.T) {
			cases, want := s.gen(), loadLearnCorpus(t, s.name)
			if len(cases) != len(want) {
				t.Fatalf("%d cases generated, the corpus holds %d: an input generator changed", len(cases), len(want))
			}
			for i, c := range cases {
				if k := c.key(); k != want[i].key {
					t.Fatalf("case %d: input key %016x, the corpus recorded %016x: an input generator changed",
						i, k, want[i].key)
				}
				net, err := c.learn(0)
				if err != nil {
					t.Fatalf("case %d: %v", i, err)
				}
				if got := recordNetwork(want[i].key, net); got != want[i] {
					t.Fatalf("case %d: learned parents %s with CPT hash %016x, the corpus holds %s with %016x",
						i, got.parents, got.cpt, want[i].parents, want[i].cpt)
				}
			}
		})
	}
}

// TestLearnWorkerInvariance learns the corpus's NBA n=1000, random and
// wide cases at 1, 2 and 8 workers: every network must be the recorded
// one, whatever the fan-out.
func TestLearnWorkerInvariance(t *testing.T) {
	for _, s := range learnCorpusSections {
		if s.name == "anneal" || s.name == "adult" {
			continue // the annealer is sequential; adult repeats nba's shape
		}
		cases, want := s.gen(), loadLearnCorpus(t, s.name)
		if s.name == "nba" {
			cases = cases[:3]
		}
		for _, workers := range []int{1, 2, 8} {
			for i, c := range cases {
				net, err := c.learn(workers)
				if err != nil {
					t.Fatalf("%s %d at %d workers: %v", s.name, i, workers, err)
				}
				if got := recordNetwork(want[i].key, net); got != want[i] {
					t.Fatalf("%s %d at %d workers: learned parents %s with CPT hash %016x, the corpus holds %s with %016x",
						s.name, i, workers, got.parents, got.cpt, want[i].parents, want[i].cpt)
				}
			}
		}
	}
}

// TestLearnConcurrentFanOut runs four learners at once, each fanning
// its scoring out over four workers, so that the race detector sees the
// per-worker buffers and the index-addressed results under contention.
func TestLearnConcurrentFanOut(t *testing.T) {
	cases, want := randomLearnCases()[:8], loadLearnCorpus(t, "random")
	errs := make(chan error, len(cases))
	for i, c := range cases {
		go func() {
			net, err := c.learn(4)
			if err == nil {
				if got := recordNetwork(want[i].key, net); got != want[i] {
					err = fmt.Errorf("case %d: learned parents %s, the corpus holds %s", i, got.parents, want[i].parents)
				}
			}
			errs <- err
		}()
	}
	for range cases {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
