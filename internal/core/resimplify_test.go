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
	return slices.EqualFunc(a.Clauses(), b.Clauses(), slices.Equal)
}

// TestResimplifyCarriesForm checks, in every round of the same 24 seeded
// runs, that each re-simplified condition's stored form — which
// SimplifiedWhere carries over for the components none of whose clauses
// changed — equals the form ctable.FromClauses derives from scratch out
// of its clauses: the same components in the same order, with the same
// canonical clause and literal orders, hashes and direct flags.
func TestResimplifyCarriesForm(t *testing.T) {
	checked := 0
	resimplifyHook = func(prev, got *ctable.Condition, _ *ctable.Knowledge) {
		if _, decided := got.Decided(); decided || got == prev {
			return
		}
		checked++
		if err := sameForm(got, ctable.FromClauses(got.Clauses())); err != nil {
			t.Errorf("re-simplification of %v: %v", prev, err)
		}
	}
	defer func() { resimplifyHook = nil }()
	for _, strategy := range []Strategy{FBS, UBS, HHS} {
		for _, noisy := range []bool{false, true} {
			for _, reask := range []int{0, 2} {
				for _, noInference := range []bool{false, true} {
					truth, incomplete := robustEnv(443, 120)
					var platform crowd.Platform = crowd.NewSimulated(truth, 1.0, nil)
					if noisy {
						liar := &impossibleLiar{
							inner:  crowd.NewSimulated(truth, 0.8, rand.New(rand.NewSource(42))),
							levels: 6, seen: map[ctable.Expr]bool{},
						}
						platform = crowd.NewUnreliable(liar, 0.1, 0, 0.1, rand.New(rand.NewSource(43)))
					}
					if _, err := Run(incomplete, platform, Options{
						Alpha: 0.3, Budget: 60, Latency: 6, Strategy: strategy, M: 8,
						MarginalsOnly:  true,
						ReaskConflicts: reask,
						NoInference:    noInference,
						Rng:            rand.New(rand.NewSource(44)),
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no condition changed under re-simplification; the carried forms went unchecked")
	}
}

// sameForm reports how the stored forms of two undecided conditions
// over the same clauses differ, or nil.
func sameForm(a, b *ctable.Condition) error {
	if a.NumComponents() != b.NumComponents() {
		return fmt.Errorf("%d components, a fresh build has %d", a.NumComponents(), b.NumComponents())
	}
	for g := 0; g < a.NumComponents(); g++ {
		ca, cb := a.Component(g), b.Component(g)
		if !slices.Equal(ca.Canon, cb.Canon) || ca.Hash != cb.Hash || ca.Direct != cb.Direct {
			return fmt.Errorf("component %d is %+v, a fresh build's %+v", g, ca, cb)
		}
		for _, ci := range ca.Canon {
			la, lb := a.AppendCanonClause(nil, int(ci)), b.AppendCanonClause(nil, int(ci))
			if !slices.EqualFunc(la, lb, func(x, y ctable.Lit) bool { return litExpr(a, x) == litExpr(b, y) }) {
				return fmt.Errorf("clause %d canonically %v, a fresh build's %v", ci, la, lb)
			}
		}
	}
	return nil
}

// litExpr returns a literal of c as an expression.
func litExpr(c *ctable.Condition, l ctable.Lit) ctable.Expr {
	vars := c.Table()
	if l.Kind == ctable.VarGTVar {
		return ctable.GTVar(vars[l.X], vars[l.Y])
	}
	return ctable.Expr{Kind: l.Kind, X: vars[l.X], C: int(l.C)}
}
