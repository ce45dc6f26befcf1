package ctable

import (
	"math/rand"
	"testing"

	"bayescrowd/internal/bitset"
	"bayescrowd/internal/dataset"
)

func benchData(b *testing.B, n int) *dataset.Dataset {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return dataset.GenNBA(rng, n).InjectMissing(rng, 0.1)
}

func BenchmarkBuildFast2000(b *testing.B) {
	d := benchData(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d, BuildOptions{Alpha: 0.01})
	}
}

func BenchmarkBuildPairwise2000(b *testing.B) {
	d := benchData(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(d, BuildOptions{Alpha: 0.01, Pairwise: true})
	}
}

func BenchmarkDominatorsFast(b *testing.B) {
	d := benchData(b, 5000)
	ix := NewDomIndex(d)
	out := bitset.New(d.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Dominators(d, i%d.Len(), out)
	}
}

func BenchmarkSimplify(b *testing.B) {
	d := benchData(b, 1000)
	ct := Build(d, BuildOptions{Alpha: 0.05})
	know := NewKnowledge(d, gridIDs(d.Len(), d.NumAttrs()))
	// Narrow a handful of variables so Simplified has work to do.
	narrowed := 0
	for _, o := range ct.Undecided() {
		for _, v := range ct.Conds[o].Vars() {
			if narrowed >= 10 {
				break
			}
			if err := know.Absorb(LTConst(v, d.Attrs[v.Attr].Levels/2), LT); err == nil {
				narrowed++
			}
		}
		if narrowed >= 10 {
			break
		}
	}
	conds := make([]*Condition, 0)
	for _, o := range ct.Undecided() {
		conds = append(conds, ct.Conds[o])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conds[i%len(conds)].Simplified(know)
	}
}
