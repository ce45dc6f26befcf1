package prob

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
)

// occChecker checks, through stOccHook, every occurrence list the engine
// carves against a scan of the whole compiled arena: the list must be
// exactly the live literals mentioning the variable in every unsatisfied
// clause, in literal order, the variable must be unassigned, and the
// clause list it was carved from must hold no satisfied clause. That is
// the invariant that lets an assignment walk only its own component and
// still change the bits, counters and dead flags the component-wide
// lists changed. A bad list panics at once: a wrong list can leave a
// decided literal undecided, and the recursion would then branch on an
// assigned variable without end.
type occChecker struct {
	mu            sync.Mutex
	lists, sweeps int
}

// watchOcc installs a checker for the rest of the test.
func watchOcc(t *testing.T) *occChecker {
	c := &occChecker{}
	stOccHook = c.check
	t.Cleanup(func() { stOccHook = nil })
	return c
}

func (c *occChecker) check(s *solver, clauses []int32, v int32, occ []int32) {
	var want []int32
	for ei, e := range s.stExprs {
		if (e.X == v || e.Y == v) && !s.stClauseSat(s.stClauseOf[ei]) && !s.stLitDead(int32(ei)) {
			want = append(want, int32(ei))
		}
	}
	failure := ""
	if s.assign[v] >= 0 {
		failure = fmt.Sprintf("variable %d is already assigned %d", v, s.assign[v])
	} else if !slices.Equal(occ, want) {
		failure = fmt.Sprintf("variable %d: carved %v, live occurrences %v", v, occ, want)
	}
	for _, cl := range clauses {
		if s.stClauseSat(cl) {
			failure = fmt.Sprintf("variable %d: satisfied clause %d in the list", v, cl)
		}
	}
	if failure != "" {
		panic("occurrence list: " + failure)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lists++
	if s.sweep {
		c.sweeps++
	}
}

// expect fails the test when the phase just run carved no list (or,
// with sweep set, none during a sweep); it then starts the next phase's
// counts.
func (c *occChecker) expect(t *testing.T, phase string, sweep bool) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lists == 0 || (sweep && c.sweeps == 0) {
		t.Fatalf("%s: %d occurrence lists carved, %d during sweeps", phase, c.lists, c.sweeps)
	}
	t.Logf("%s: %d occurrence lists checked, %d during sweeps", phase, c.lists, c.sweeps)
	c.lists, c.sweeps = 0, 0
}

// exerciseOcc runs every engine entry point over conds: Pr(φ) in each of
// modes, the unit-clause probes of
// CondProbsWith and CondScan.CondProbs (up to probes expressions a
// condition) with sweeps planned, and ApproxCount.
func exerciseOcc(t *testing.T, c *occChecker, tag string, conds []*ctable.Condition, dists Dists, modes []Options, probes int) {
	for _, opt := range modes {
		ev := &Evaluator{Dists: dists, Opt: opt}
		for _, cond := range conds {
			ev.Prob(cond)
		}
		c.expect(t, fmt.Sprintf("%s Prob %+v", tag, opt), false)
	}
	ev := NewEvaluator(dists)
	ev.Cache = NewComponentCache(DefaultCacheSize)
	noComp := &Evaluator{Dists: dists, Opt: Options{NoComponents: true}}
	for _, cond := range conds {
		p := ev.Prob(cond)
		exprs := cond.Exprs()
		if len(exprs) > probes {
			exprs = exprs[:probes]
		}
		for _, e := range exprs {
			ev.CondProbsWith(cond, e, p)
			noComp.CondProbsWith(cond, e, p)
		}
	}
	c.expect(t, tag+" CondProbsWith", false)
	for _, cond := range conds {
		scan := NewEvaluator(dists).NewCondScan(cond, 0)
		scan.PlanSweeps(cond.Exprs())
		exprs := cond.Exprs()
		if len(exprs) > probes {
			exprs = exprs[:probes]
		}
		for _, e := range exprs {
			scan.CondProbs(e)
		}
	}
	c.expect(t, tag+" CondScan", true)
	rng := rand.New(rand.NewSource(5))
	for _, cond := range conds {
		ev.ApproxCount(cond, 20, rng)
	}
	c.expect(t, tag+" ApproxCount", false)
}

// TestOccurrenceListsAreComponentWide checks the branch-local occurrence
// lists on seeded random CNFs, batch NBA conditions and sliding-window
// conditions (DynCTable.Cond) through every engine entry point.
func TestOccurrenceListsAreComponentWide(t *testing.T) {
	c := watchOcc(t)

	rng := rand.New(rand.NewSource(61))
	var random []*ctable.Condition
	randomDists := Dists{}
	for len(random) < 300 {
		cond, dists := randomCondition(rng)
		// randomCondition reuses variable names across conditions, so
		// each condition's objects are shifted to names of its own.
		off := len(random) * 16
		clauses := cond.Clauses()
		for _, cl := range clauses {
			for k := range cl {
				cl[k].X.Obj += off
				if cl[k].Kind == ctable.VarGTVar {
					cl[k].Y.Obj += off
				}
			}
		}
		for x, d := range dists {
			randomDists[ctable.Var{Obj: x.Obj + off, Attr: x.Attr}] = d
		}
		random = append(random, ctable.FromClauses(clauses))
	}
	exerciseOcc(t, c, "random", random, randomDists, []Options{{}, {NoComponents: true}, {BranchFirstVar: true}}, 8)

	// First-variable branching is exponential on NBA-sized components.
	modes := []Options{{}, {NoComponents: true}}
	batch, batchDists := nbaConditions(300, 0.15, 0.1, 9)
	exerciseOcc(t, c, "batch", batch, batchDists, modes, 4)

	window, windowDists := windowConditions(400, 0.1, 10)
	exerciseOcc(t, c, "window", window, windowDists, modes, 4)
}

// windowConditions inserts n generated NBA rows with missing cells into a
// sliding-window c-table, evicts every third, and returns the undecided
// conditions of the rest with uniform distributions.
func windowConditions(n int, missing float64, seed int64) ([]*ctable.Condition, Dists) {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.GenNBA(rng, n).InjectMissing(rng, missing)
	tbl := ctable.NewDynCTable(d.Attrs, n)
	var ids []int
	for _, o := range d.Objects {
		id, _ := tbl.Insert(o.Cells)
		ids = append(ids, id)
	}
	for i := 0; i < len(ids); i += 3 {
		tbl.Evict(ids[i])
	}
	dists := Dists{}
	var conds []*ctable.Condition
	for _, id := range tbl.IDs() {
		cond := tbl.Cond(id, nil)
		if _, decided := cond.Decided(); decided {
			continue
		}
		conds = append(conds, cond)
		for _, x := range cond.Vars() {
			dists[x] = uniform(d.Attrs[x.Attr].Levels)
		}
	}
	return conds, dists
}
