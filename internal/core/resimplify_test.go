package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
)

// TestResimplifyFilterExact checks, in every round of seeded runs, that
// re-simplifying only the expressions that mention an object this
// round's answers touched gives exactly what a full Simplified under the
// same knowledge gives, clause for clause and expression for expression.
// The runs cover every strategy, a perfect crowd and a noisy, unreliable
// one (wrong answers, impossible boundary answers that conflict and are
// discarded or re-asked, drops and spam), and inference on and off.
func TestResimplifyFilterExact(t *testing.T) {
	checked, changed := 0, 0
	resimplifyHook = func(prev, got *ctable.Condition, know *ctable.Knowledge) {
		checked++
		if got != prev {
			changed++
		}
		if want := prev.Simplified(know); !sameCondition(got, want) {
			t.Errorf("filtered re-simplification of %v gave %v, a full one %v", prev, got, want)
		}
	}
	defer func() { resimplifyHook = nil }()

	conflicts := 0
	for _, strategy := range []Strategy{FBS, UBS, HHS} {
		for _, noisy := range []bool{false, true} {
			for _, reask := range []int{0, 2} {
				for _, noInference := range []bool{false, true} {
					name := fmt.Sprintf("%v/noisy=%v/reask=%d/noInference=%v", strategy, noisy, reask, noInference)
					truth, incomplete := robustEnv(443, 120)
					var platform crowd.Platform = crowd.NewSimulated(truth, 1.0, nil)
					if noisy {
						liar := &impossibleLiar{
							inner:  crowd.NewSimulated(truth, 0.8, rand.New(rand.NewSource(42))),
							levels: 6, seen: map[ctable.Expr]bool{},
						}
						platform = crowd.NewUnreliable(liar, 0.1, 0, 0.1, rand.New(rand.NewSource(43)))
					}
					res, err := Run(incomplete, platform, Options{
						Alpha: 0.3, Budget: 60, Latency: 6, Strategy: strategy, M: 8,
						MarginalsOnly:  true,
						ReaskConflicts: reask,
						NoInference:    noInference,
						Rng:            rand.New(rand.NewSource(44)),
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					conflicts += res.ConflictingAnswers + res.ConflictsResolved
				}
			}
		}
	}
	if changed == 0 || changed == checked || conflicts == 0 {
		t.Fatalf("the runs re-simplified %d conditions, %d of them changed, with %d conflicts: the check needs both kinds and some conflicts",
			checked, changed, conflicts)
	}
}

// sameCondition reports whether two conditions are equal clause for
// clause.
func sameCondition(a, b *ctable.Condition) bool {
	av, ad := a.Decided()
	bv, bd := b.Decided()
	if ad || bd {
		return ad == bd && av == bv
	}
	return slices.EqualFunc(a.Clauses, b.Clauses, slices.Equal)
}
