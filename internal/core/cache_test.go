package core

import (
	"math"
	"math/rand"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

// answerLog records everything the platform told the framework so the
// test can rebuild the knowledge state independently.
type answerLog struct {
	inner   crowd.Platform
	answers []crowd.Answer
}

func (l *answerLog) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	out, err := l.inner.Post(tasks)
	l.answers = append(l.answers, out...)
	return out, err
}

// TestProbabilityCacheFreshness is a differential check on the
// incremental invalidation inside crowdPhase: the probabilities the run
// reports for undecided objects must equal a from-scratch ADPLL
// evaluation under the final knowledge (reconstructed from the recorded
// answers). A stale cache entry — a condition whose invalidation was
// missed — would disagree.
func TestProbabilityCacheFreshness(t *testing.T) {
	for trial := int64(0); trial < 6; trial++ {
		rng := rand.New(rand.NewSource(500 + trial))
		truth := dataset.GenIndependent(rng, 120, 4, 6)
		incomplete := truth.InjectMissing(rng, 0.2)

		base, err := Preprocess(incomplete, Options{MarginalsOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		log := &answerLog{inner: crowd.NewSimulated(truth, 0.9, rand.New(rand.NewSource(600+trial)))}
		res, err := RunWithDists(incomplete, base, log, Options{
			Alpha: 0.3, Budget: 40, Latency: 5, Strategy: FBS,
			MarginalsOnly: true,
			Rng:           rand.New(rand.NewSource(700 + trial)),
		})
		if err != nil {
			t.Fatal(err)
		}

		// Rebuild the final knowledge and effective distributions from
		// the answer log, exactly as crowdPhase absorbs them.
		var vars []ctable.Var
		for v := range base {
			vars = append(vars, v)
		}
		know := ctable.NewKnowledge(incomplete, ctable.NewVarIDs(vars))
		ev := prob.NewEvaluator(base)
		for _, a := range log.answers {
			if err := know.Absorb(a.Task.Expr, a.Rel); err != nil {
				continue // conflicting answer, discarded by the run too
			}
			if a.Task.Expr.Kind != ctable.VarGTVar {
				v := a.Task.Expr.X
				lo, hi := know.Bounds(v)
				ev.Narrow(v, prob.Interval{Lo: lo, Hi: hi})
			}
		}

		for o, cached := range res.Probs {
			fresh := ev.Prob(res.CTable.Conds[o])
			if math.Abs(fresh-cached) > 1e-9 {
				t.Fatalf("trial %d: object %d cached Pr=%v, fresh Pr=%v (stale cache)",
					trial, o, cached, fresh)
			}
		}
	}
}
