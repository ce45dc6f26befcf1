package ctable

import (
	"math/rand"
	"reflect"
	"testing"

	"bayescrowd/internal/dataset"
)

// assertSameTable fails unless two c-tables are identical in conditions,
// dominator sizes and pruning statistics.
func assertSameTable(t *testing.T, label string, got, want *CTable) {
	t.Helper()
	if !reflect.DeepEqual(got.DomSizes, want.DomSizes) {
		for o := range want.DomSizes {
			if got.DomSizes[o] != want.DomSizes[o] {
				t.Fatalf("%s: DomSizes[%d] = %d, want %d", label, o, got.DomSizes[o], want.DomSizes[o])
			}
		}
	}
	if got.Pruned != want.Pruned || !reflect.DeepEqual(got.PrunedByAlpha, want.PrunedByAlpha) {
		t.Fatalf("%s: pruning stats differ (%d vs %d)", label, got.Pruned, want.Pruned)
	}
	for o := range want.Conds {
		if g, w := got.Conds[o].String(), want.Conds[o].String(); g != w {
			t.Fatalf("%s: φ(o%d) = %q, want %q", label, o, g, w)
		}
	}
}

// TestSortedBuildEquivalence pins the sorted/partitioned build against the
// pairwise Fig 2 reference derivation across dataset shapes chosen to
// stress the grouping: heavy duplication (few levels), no duplication
// (distinct rows), all-missing columns, zero and saturating missing rates,
// and both pruning regimes.
func TestSortedBuildEquivalence(t *testing.T) {
	type tc struct {
		name  string
		gen   func(rng *rand.Rand) *dataset.Dataset
		alpha float64
	}
	cases := []tc{
		{"nba", func(rng *rand.Rand) *dataset.Dataset {
			return dataset.GenNBA(rng, 250).InjectMissing(rng, 0.15)
		}, 0.05},
		{"independent-dup-heavy", func(rng *rand.Rand) *dataset.Dataset {
			return dataset.GenIndependent(rng, 400, 3, 2).InjectMissing(rng, 0.2)
		}, 0.2},
		{"correlated", func(rng *rand.Rand) *dataset.Dataset {
			return dataset.GenCorrelated(rng, 300, 5, 6, 0.6).InjectMissing(rng, 0.1)
		}, 0},
		{"anticorrelated-complete", func(rng *rand.Rand) *dataset.Dataset {
			return dataset.GenAntiCorrelated(rng, 200, 4, 8)
		}, 0.1},
		{"mostly-missing", func(rng *rand.Rand) *dataset.Dataset {
			return dataset.GenIndependent(rng, 150, 4, 5).InjectMissing(rng, 0.8)
		}, 0.5},
		{"tiny", func(rng *rand.Rand) *dataset.Dataset {
			return dataset.GenIndependent(rng, 3, 2, 4).InjectMissing(rng, 0.3)
		}, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				d := c.gen(rand.New(rand.NewSource(seed)))
				pairwise := Build(d, BuildOptions{Alpha: c.alpha, Pairwise: true, Workers: 1})
				for _, workers := range []int{1, 2, 7, 32} {
					sorted := Build(d, BuildOptions{Alpha: c.alpha, Workers: workers})
					assertSameTable(t, c.name+"/sorted", sorted, pairwise)
				}
			}
		})
	}
}

// TestSortedBuildEmpty covers the degenerate cardinalities the group
// partitioning must not trip on.
func TestSortedBuildEmpty(t *testing.T) {
	d := dataset.New([]dataset.Attribute{{Name: "a", Levels: 3}, {Name: "b", Levels: 3}})
	ct := Build(d, BuildOptions{})
	if len(ct.Conds) != 0 || ct.Pruned != 0 {
		t.Fatalf("empty dataset built %d conditions, %d pruned", len(ct.Conds), ct.Pruned)
	}

	d.MustAppend(dataset.Object{ID: "solo", Cells: []dataset.Cell{dataset.Known(1), dataset.Unknown()}})
	ct = Build(d, BuildOptions{})
	if len(ct.Conds) != 1 || !ct.Conds[0].IsTrue() || ct.DomSizes[0] != 0 {
		t.Fatalf("singleton dataset: conds=%d dom=%d", len(ct.Conds), ct.DomSizes[0])
	}
}

// TestSortedBuildVerify re-checks soundness of the sorted path end to end:
// under the ground truth every condition must evaluate to the object's
// skyline membership.
func TestSortedBuildVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := dataset.GenNBA(rng, 300)
	d := truth.InjectMissing(rng, 0.2)
	ct := Build(d, BuildOptions{})
	if bad := ct.Verify(truth); len(bad) != 0 {
		t.Fatalf("sorted build unsound for objects %v", bad)
	}
}
