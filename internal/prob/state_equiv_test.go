package prob

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

	"bayescrowd/internal/ctable"
)

// The Pr(φ) engine answers to a frozen corpus, not approximately: every
// float must match bit for bit. testdata/engine_corpus.txt holds the
// math.Float64bits of the original clause-rewriting ADPLL engine's outputs
// on the seeded inputs the tests below generate, so the compiled engine
// stays pinned to the seed behaviour. The corpus has no update flag: it
// records an engine, not the code it checks, and cannot be regenerated
// from that code. Every case carries an FNV-1a key over its inputs (the
// condition's clauses, its variables' distributions, and any probe), so a
// change to an input generator fails loudly instead of comparing other
// inputs against the recorded floats.

const corpusPath = "testdata/engine_corpus.txt"

// corpusCase is one corpus line: the key of the case's inputs and the
// Float64bits of the engine's outputs on them.
type corpusCase struct {
	key  uint64
	bits []uint64
}

// loadCorpus returns one section of the corpus file. A line reads
// "<section> <index> <input key> <output bits>...", all numbers but the
// index in hex; '#' starts a comment line.
func loadCorpus(t *testing.T, section string) []corpusCase {
	t.Helper()
	data, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("loading the engine corpus: %v", err)
	}
	var out []corpusCase
	for n, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != section {
			continue
		}
		if len(fields) < 4 || fields[1] != strconv.Itoa(len(out)) {
			t.Fatalf("%s:%d: malformed or out-of-sequence corpus line", corpusPath, n+1)
		}
		var c corpusCase
		for i, hex := range fields[2:] {
			u, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				t.Fatalf("%s:%d: %v", corpusPath, n+1, err)
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

// checkCorpus compares freshly computed cases with a corpus section, case
// by case: the input keys first (a mismatch means the inputs moved, not
// the engine), then the output bits.
func checkCorpus(t *testing.T, section, tag string, got []corpusCase) {
	t.Helper()
	want := loadCorpus(t, section)
	if len(got) != len(want) {
		t.Fatalf("%s (%s): %d cases computed, the corpus holds %d: an input generator changed",
			section, tag, len(got), len(want))
	}
	for i := range got {
		if got[i].key != want[i].key {
			t.Fatalf("%s (%s) case %d: input key %016x, the corpus recorded %016x: an input generator changed",
				section, tag, i, got[i].key, want[i].key)
		}
		if !slices.Equal(got[i].bits, want[i].bits) {
			t.Fatalf("%s (%s) case %d: engine returned %s, the corpus holds %s",
				section, tag, i, fmtBits(got[i].bits), fmtBits(want[i].bits))
		}
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func fmtBits(bits []uint64) string {
	parts := make([]string, len(bits))
	for i, b := range bits {
		parts[i] = fmt.Sprintf("%016x(%v)", b, math.Float64frombits(b))
	}
	return strings.Join(parts, " ")
}

func floatBits(vs ...float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// condInput encodes a condition and its variables' distributions: the
// clause structure through ctable.Expr.AppendKey, then every variable's
// distribution bits in first-occurrence order.
func condInput(c *ctable.Condition, dists Dists) []byte {
	var buf []byte
	buf = binary.AppendUvarint(buf, uint64(c.NumClauses()))
	for _, cl := range c.Clauses() {
		buf = binary.AppendUvarint(buf, uint64(len(cl)))
		for _, e := range cl {
			buf = e.AppendKey(buf)
		}
	}
	for _, x := range c.Vars() {
		d := dists[x]
		buf = binary.AppendUvarint(buf, uint64(len(d)))
		for _, p := range d {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p))
		}
	}
	return buf
}

func inputKey(input []byte) uint64 {
	h := fnv.New64a()
	h.Write(input)
	return h.Sum64()
}

// corpusRandom evaluates the 400 seeded random CNFs.
func corpusRandom() []corpusCase {
	var out []corpusCase
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cond, dists := randomCondition(rng)
		ev := NewEvaluator(dists)
		out = append(out, corpusCase{inputKey(condInput(cond, dists)), floatBits(ev.Prob(cond))})
	}
	return out
}

// corpusNBA evaluates every undecided condition of a 250-object NBA
// c-table through ProbAll.
func corpusNBA(conds []*ctable.Condition, dists Dists, cached bool, workers int) []corpusCase {
	ev := NewEvaluator(dists)
	if cached {
		ev.Cache = NewComponentCache(DefaultCacheSize)
	}
	ps := ev.ProbAll(conds, workers)
	out := make([]corpusCase, len(conds))
	for i, c := range conds {
		out[i] = corpusCase{inputKey(condInput(c, dists)), floatBits(ps[i])}
	}
	return out
}

// corpusCondProbs walks NBA conditions until 400 expressions have been
// probed, recording per condition its Pr(φ) ("condprob/phi"), per probe
// the CondProbsWith and CondScan.CondProbs quantities ("condprob/probe"),
// and per swept variable its joint vector Pr(comp ∧ x=a)
// ("condprob/sweep"). Sweeps are planned on every scan, so swept
// candidates are priced by partial sums, the path the UBS utility
// fan-out takes.
func corpusCondProbs(conds []*ctable.Condition, dists Dists, cached bool) (phi, probes, sweeps []corpusCase) {
	ev := NewEvaluator(dists)
	if cached {
		ev.Cache = NewComponentCache(DefaultCacheSize)
	}
	checked := 0
	for _, c := range conds {
		in := condInput(c, dists)
		p := ev.Prob(c)
		phi = append(phi, corpusCase{inputKey(in), floatBits(p)})
		scan := ev.NewCondScan(c, p)
		exprs := c.Exprs()
		scan.PlanSweeps(exprs)
		for _, x := range c.Vars() {
			if vec, ok := scan.sweeps[x]; ok {
				k := binary.AppendUvarint(slices.Clip(in), uint64(x.Obj))
				k = binary.AppendUvarint(k, uint64(x.Attr))
				sweeps = append(sweeps, corpusCase{inputKey(k), floatBits(vec...)})
			}
		}
		for _, e := range exprs {
			pe, _, pt, pf := ev.CondProbsWith(c, e, p)
			ge, gp, gt, gf := scan.CondProbs(e)
			probes = append(probes, corpusCase{
				inputKey(e.AppendKey(slices.Clip(in))),
				floatBits(pe, pt, pf, ge, gp, gt, gf),
			})
			checked++
			if checked >= 400 {
				return phi, probes, sweeps
			}
		}
	}
	return phi, probes, sweeps
}

// ablationModes are the corpus's ablation sections and their options.
var ablationModes = []struct {
	section string
	opt     Options
}{
	{"ablation/firstvar", Options{BranchFirstVar: true}},
	{"ablation/nocomp", Options{NoComponents: true}},
	{"ablation/nocomp-firstvar", Options{NoComponents: true, BranchFirstVar: true}},
}

// corpusAblation evaluates 150 seeded random CNFs under one ablation.
func corpusAblation(opt Options) []corpusCase {
	var out []corpusCase
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cond, dists := randomCondition(rng)
		ev := &Evaluator{Dists: dists, Opt: opt}
		out = append(out, corpusCase{inputKey(condInput(cond, dists)), floatBits(ev.Prob(cond))})
	}
	return out
}

// deepChain is a long var-vs-var chain plus an overlapping second chain:
// branching depth grows with the chain, and every literal is decided and
// revived many times.
func deepChain() (*ctable.Condition, Dists) {
	const n = 12
	vars := make([]ctable.Var, n)
	dists := Dists{}
	rng := rand.New(rand.NewSource(3))
	for i := range vars {
		vars[i] = v(i, 0)
		dists[vars[i]] = randomDist(rng, 4)
	}
	var clauses [][]ctable.Expr
	for i := 0; i+1 < n; i++ {
		clauses = append(clauses, []ctable.Expr{ctable.GTVar(vars[i], vars[i+1])})
	}
	// A second, overlapping chain ensures shared variables across clauses.
	for i := 0; i+2 < n; i += 2 {
		clauses = append(clauses, []ctable.Expr{
			ctable.GTVar(vars[i], vars[i+2]),
			ctable.LTConst(vars[i+1], 3),
		})
	}
	return ctable.FromClauses(clauses), dists
}

// TestStateEngineBitIdenticalRandom sweeps seeded random CNFs.
func TestStateEngineBitIdenticalRandom(t *testing.T) {
	checkCorpus(t, "random", "default", corpusRandom())
}

// TestStateEngineBitIdenticalNBA checks whole NBA-shaped workloads: every
// undecided condition, with and without the component cache, at several
// worker counts.
func TestStateEngineBitIdenticalNBA(t *testing.T) {
	conds, dists := nbaConditions(250, 0.2, 0.1, 7)
	if len(conds) == 0 {
		t.Fatal("no undecided conditions generated")
	}
	for _, cached := range []bool{false, true} {
		for _, workers := range []int{1, 3, 8} {
			tag := fmt.Sprintf("cached=%v workers=%d", cached, workers)
			checkCorpus(t, "nba", tag, corpusNBA(conds, dists, cached, workers))
		}
	}
}

// TestStateEngineBitIdenticalCondProbs pins the UBS/HHS probe path: the
// unit-clause augmented re-solves of CondProbsWith, the component-scan
// probes and the swept joint vectors, expression by expression.
func TestStateEngineBitIdenticalCondProbs(t *testing.T) {
	conds, dists := nbaConditions(150, 0.25, 0.1, 5)
	for _, cached := range []bool{false, true} {
		tag := fmt.Sprintf("cached=%v", cached)
		phi, probes, sweeps := corpusCondProbs(conds, dists, cached)
		checkCorpus(t, "condprob/phi", tag, phi)
		checkCorpus(t, "condprob/probe", tag, probes)
		checkCorpus(t, "condprob/sweep", tag, sweeps)
	}
}

// TestStateEngineAblationModes covers the ablation options: the
// BranchFirstVar branching rule and NoComponents (which bypasses
// component decomposition entirely), alone and combined.
func TestStateEngineAblationModes(t *testing.T) {
	for _, m := range ablationModes {
		checkCorpus(t, m.section, fmt.Sprintf("%+v", m.opt), corpusAblation(m.opt))
	}
}

// TestStateEngineDeepChain exercises deep recursion and the undo trail,
// and checks the result against Naive enumeration as well.
func TestStateEngineDeepChain(t *testing.T) {
	cond, dists := deepChain()
	ev := NewEvaluator(dists)
	p := ev.Prob(cond)
	checkCorpus(t, "chain", "default", []corpusCase{{inputKey(condInput(cond, dists)), floatBits(p)}})
	if naive := ev.Naive(cond); math.Abs(naive-p) > 1e-9 {
		t.Fatalf("%v deviates from naive %v", p, naive)
	}
}
