package ctable

import (
	"errors"
	"math/rand"
	"testing"

	"bayescrowd/internal/dataset"
)

// markAnswer adds to touched the ids under ids of the variables an
// absorbed answer mentions, as the crowd loops' absorption does; a
// variable ids does not number gets no id.
func markAnswer(touched *IDSet, ids *VarIDs, e Expr) {
	for _, v := range e.Vars(nil) {
		if id, ok := ids.ID(v); ok {
			touched.Add(id)
		}
	}
}

// TestSimplifiedWhereMatchesSimplified is the filter's exactness
// property on random batch conditions: a condition re-simplified round
// after round over the variables each round's answers touched is, after
// every round, the same formula in the same stored form as the original
// condition simplified afresh under all the knowledge so far. The
// answers are constant and var-vs-var comparisons, some of them
// re-answers that conflict and are refused (and so mark nothing), every
// fourth trial under NoInference. Under NoInference an answered
// expression is not asked again: Knowledge.Absorb keeps its last answer
// there, so a re-answer could undo what a cached simplification relied
// on, and the crowd loops never ask a decided expression. The
// conditions mention variables the knowledge's numbering lacks, and the
// touched set holds ids past the numbering's end; answers mention a
// numbered variable, as every answer of the crowd loops does, since
// they number every variable their conditions mention.
func TestSimplifiedWhereMatchesSimplified(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	const levels = 5
	schema := dataset.New([]dataset.Attribute{{Name: "a", Levels: levels}, {Name: "b", Levels: levels}})
	checked, changed, decided, skipped, conflicts, noInference := 0, 0, 0, 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		// Objects 0 to n-1 with two attributes; the numbering lacks the
		// last object's variables.
		n := 3 + rng.Intn(4)
		var vars, numbered []Var
		for o := 0; o < n; o++ {
			for a := 0; a < 2; a++ {
				vars = append(vars, Var{Obj: o, Attr: a})
				if o < n-1 {
					numbered = append(numbered, Var{Obj: o, Attr: a})
				}
			}
		}
		ids := NewVarIDs(numbered)
		know := NewKnowledge(schema, ids)
		know.NoInference = trial%4 == 3
		orig := randomCNF(rng, vars, levels)
		cached := orig.Simplified(know) // a fixed point of empty knowledge
		var asked []Expr
		var touched IDSet
		for round := 0; round < 6; round++ {
			touched.Reset()
			for k := rng.Intn(3); k > 0; k-- {
				touched.Add(int32(ids.Len() + rng.Intn(4)))
			}
			for a := 1 + rng.Intn(3); a > 0; a-- {
				var e Expr
				switch {
				case len(asked) > 0 && rng.Intn(4) == 0:
					e = asked[rng.Intn(len(asked))]
				case rng.Intn(3) == 0:
					e = GTVar(numbered[rng.Intn(len(numbered))], vars[rng.Intn(len(vars))])
					if e.X == e.Y {
						continue
					}
				default:
					e = randomExpr(rng, numbered, levels)
				}
				if _, d := know.Eval(e); d && know.NoInference {
					continue
				}
				if err := know.Absorb(e, Rel(rng.Intn(3))); err != nil {
					if !errors.Is(err, ErrConflict) {
						t.Fatal(err)
					}
					conflicts++
					continue
				}
				asked = append(asked, e)
				markAnswer(&touched, ids, e)
			}
			got := cached.SimplifiedWhere(know, &touched)
			if want := orig.Simplified(know); !sameForm(got, want) {
				t.Fatalf("trial %d round %d: %v re-simplified over %v is %v, %v simplified afresh is %v",
					trial, round, cached, touched.IDs, got, orig, want)
			}
			checked++
			if got != cached {
				changed++
			}
			if _, d := got.Decided(); d {
				decided++
			}
			if _, d := cached.Decided(); !d && got == cached && !cached.Mentions(func(v Var) bool { return touched.HasVar(ids, v) }) {
				skipped++
			}
			if know.NoInference {
				noInference++
			}
			cached = got
		}
	}
	if changed == 0 || decided == 0 || skipped == 0 || conflicts == 0 || noInference == 0 {
		t.Fatalf("vacuous run: %d checked, %d changed, %d decided, %d untouched, %d conflicts, %d under NoInference",
			checked, changed, decided, skipped, conflicts, noInference)
	}
}

// TestSimplifiedWhereWindow is the same property on window conditions,
// maintained the way the streaming crowd loop maintains them: under
// random inserts, evictions and answers, a live object's cached
// condition is derived afresh under the knowledge (DynCTable.Cond) when
// the table marks it dirty, and otherwise re-simplified over the
// variables the step's answers touched. Each cached condition must be
// the same formula in the same stored form as the unfiltered window
// condition simplified under the knowledge.
func TestSimplifiedWhereWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	const steps = 120
	checked, resimplified, changed, conflicts := 0, 0, 0, 0
	for trial := 0; trial < 8; trial++ {
		nAttrs := 2 + rng.Intn(3)
		attrs := make([]dataset.Attribute, nAttrs)
		for j := range attrs {
			attrs[j] = dataset.Attribute{Name: "a", Levels: 2 + rng.Intn(6)}
		}
		dt := NewDynCTable(attrs, 8)
		ids := gridIDs(steps, nAttrs)
		know := NewKnowledge(dataset.New(attrs), ids)
		know.NoInference = trial%4 == 3
		cache := map[int]*Condition{}
		var live []int
		var asked []Expr
		var touched IDSet
		for step := 0; step < steps; step++ {
			touched.Reset()
			if len(live) > 0 && rng.Float64() < 0.35 {
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				know.Forget(dt.Evict(id)...)
				delete(cache, id)
			} else {
				id, _ := dt.Insert(randCells(rng, attrs, 0.1+rng.Float64()*0.3))
				live = append(live, id)
			}

			// Two answers a step: a literal of a live condition, a fresh
			// constant comparison, or a re-answer — under NoInference, of
			// an expression not yet answered.
			for a := 0; a < 2 && len(live) > 0; a++ {
				var e Expr
				switch r := rng.Float64(); {
				case r < 0.5:
					lits := dt.Cond(live[rng.Intn(len(live))], nil).AppendExprs(nil)
					if len(lits) == 0 {
						continue
					}
					e = lits[rng.Intn(len(lits))]
				case r < 0.8 || len(asked) == 0:
					id := live[rng.Intn(len(live))]
					vars := MissingVars(id, dt.Cells(id), nil)
					if len(vars) == 0 {
						continue
					}
					x := vars[rng.Intn(len(vars))]
					if c := rng.Intn(attrs[x.Attr].Levels); rng.Intn(2) == 0 {
						e = LTConst(x, c)
					} else {
						e = GTConst(x, c)
					}
				default:
					e = asked[rng.Intn(len(asked))]
				}
				if _, d := know.Eval(e); d && know.NoInference {
					continue
				}
				switch err := know.Absorb(e, Rel(rng.Intn(3))); {
				case errors.Is(err, ErrConflict):
					conflicts++
				case errors.Is(err, ErrForgotten):
				case err != nil:
					t.Fatal(err)
				default:
					asked = append(asked, e)
					markAnswer(&touched, ids, e)
				}
			}

			dirty := map[int]bool{}
			for _, id := range dt.DrainDirty() {
				dirty[id] = true
			}
			for _, id := range live {
				prev, ok := cache[id]
				var got *Condition
				if !ok || dirty[id] {
					got = dt.Cond(id, know)
				} else {
					got = prev.SimplifiedWhere(know, &touched)
					resimplified++
					if got != prev {
						changed++
					}
				}
				if want := dt.Cond(id, nil).Simplified(know); !sameForm(got, want) {
					t.Fatalf("trial %d step %d id %d: maintained %v, simplified afresh %v", trial, step, id, got, want)
				}
				cache[id] = got
				checked++
			}
		}
	}
	if resimplified == 0 || changed == 0 || conflicts == 0 {
		t.Fatalf("vacuous run: %d checked, %d re-simplified, %d of them changed, %d conflicts",
			checked, resimplified, changed, conflicts)
	}
}
