package core

import (
	"slices"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/prob"
)

// Selection is the scratch of one crowd loop's task selection, reused
// from round to round: the batch's conflict set, the top-k expression
// frequencies, the expression buffers and dedup set, and the sort buffers,
// cleared in place by each call. The zero value is ready for use; a
// Selection serves one loop, one call at a time.
type Selection struct {
	used   map[ctable.Var]bool
	freq   map[ctable.Expr]int
	seen   map[ctable.Expr]struct{}
	exprs  []ctable.Expr
	avail  []ctable.Expr
	hs     []float64
	cands  []candidate
	ranked []rankedExpr
}

// candidate is an object SelectTasks ranks by the entropy h of its
// Pr(φ).
type candidate struct {
	obj int
	h   float64
}

// rankedExpr is an expression pickExpr ranks by its frequency.
type rankedExpr struct {
	e    ctable.Expr
	freq int
}

// selectBatch implements one iteration of the two-step task selection
// (§6.2) over a batch c-table; see SelectTasks for the mechanics.
func (sel *Selection) selectBatch(opt Options, ct *ctable.CTable, ev *prob.Evaluator, probs map[int]float64, k int) []crowd.Task {
	return sel.SelectTasks(opt, ct.Undecided(), func(o int) *ctable.Condition { return ct.Conds[o] }, ev, probs, k, nil)
}

// SelectTasks implements one iteration of the two-step task selection
// (§6.2): rank the candidate objects by the entropy of their current
// Pr(φ), then pick one expression per object according to the strategy,
// keeping the batch conflict-free (no two tasks share a variable,
// §6.1). It returns at most k tasks; objects beyond the top-k are
// consulted only when higher-entropy objects cannot contribute a
// conflict-free task.
//
// objs lists the candidate objects (the undecided ones) in a
// deterministic order and cond supplies each one's live condition; the
// split from the batch CTable lets the streaming crowd loop select over
// its window without materialising one. busy, when non-nil, pre-seeds
// the conflict set — the streaming loop passes the variables of its
// in-flight tasks so a question is never posted twice concurrently.
// Only opt's selection knobs are consulted (Strategy, M, Workers, Rng,
// TaskCost, NoCache, Trace); opt.Rng must be non-nil.
func (sel *Selection) SelectTasks(opt Options, objs []int, cond func(int) *ctable.Condition, ev *prob.Evaluator, probs map[int]float64, k int, busy map[ctable.Var]bool) []crowd.Task {
	// Entropy scoring fans out across the pool (concurrent map reads of
	// probs are safe — nothing writes during selection); candidates are
	// then collected sequentially in index order, exactly as before.
	hs := slices.Grow(sel.hs[:0], len(objs))[:len(objs)]
	sel.hs = hs
	parallel.For(opt.Workers, len(objs), func(_, i int) {
		hs[i] = Entropy(probs[objs[i]])
	})
	cands := sel.cands[:0]
	for i, o := range objs {
		if cond(o).NumExprs() == 0 {
			continue
		}
		cands = append(cands, candidate{obj: o, h: hs[i]})
	}
	sel.cands = cands
	if len(cands) == 0 || k <= 0 {
		return nil
	}
	// Descending entropy, ties kept in objs order.
	slices.SortStableFunc(cands, func(a, b candidate) int {
		switch {
		case a.h > b.h:
			return -1
		case b.h > a.h:
			return 1
		}
		return 0
	})

	// Expression frequencies across the conditions of the chosen top-k
	// objects (the FBS ranking key and the HHS visiting order).
	top := cands
	if len(top) > k {
		top = top[:k]
	}
	if sel.freq == nil {
		sel.freq = map[ctable.Expr]int{}
	}
	clear(sel.freq)
	for _, c := range top {
		sel.exprs = cond(c.obj).AppendExprs(sel.exprs[:0])
		for _, e := range sel.exprs {
			sel.freq[e]++
		}
	}
	if opt.Trace.On() {
		// The entropy ranking is deterministic: scores merge by index and
		// the stable sort fixes tie order, so top is identical at any
		// worker count.
		for _, c := range top {
			opt.Trace.Emit(obs.Event{Kind: obs.KindEntropyTopK, Obj: c.obj, P: c.h})
		}
	}

	if sel.used == nil {
		sel.used = map[ctable.Var]bool{}
	}
	clear(sel.used)
	for v := range busy {
		sel.used[v] = true
	}
	var tasks []crowd.Task
	var varBuf []ctable.Var
	spent := 0
	for _, c := range cands {
		if spent >= k {
			break
		}
		e, ok := sel.pickExpr(opt, ev, cond(c.obj), probs[c.obj])
		if !ok {
			continue // every expression conflicts with this batch
		}
		if opt.Trace.On() {
			opt.Trace.Emit(obs.Event{Kind: obs.KindStrategyPick, Obj: c.obj, Task: e.String()})
		}
		task := crowd.Task{Expr: e}
		cost := taskCost(opt, task)
		// A task pricier than the remaining allowance still ships when it
		// is the round's first — otherwise one expensive task could
		// starve the query forever.
		if spent > 0 && spent+cost > k {
			continue
		}
		tasks = append(tasks, task)
		spent += cost
		varBuf = e.Vars(varBuf[:0])
		for _, v := range varBuf {
			sel.used[v] = true
		}
	}
	return tasks
}

// taskCost prices a task: 1 unit unless Options.TaskCost says otherwise.
// Non-positive prices are a caller bug and panic loudly rather than
// silently corrupting the budget ledger.
func taskCost(opt Options, t crowd.Task) int {
	if opt.TaskCost == nil {
		return 1
	}
	c := opt.TaskCost(t)
	if c < 1 {
		panic("core: TaskCost returned a non-positive price")
	}
	return c
}

// pickExpr chooses one expression of the condition per the strategy,
// avoiding the variables sel.used holds, ranked by sel.freq. ok is false
// when no conflict-free expression exists.
func (sel *Selection) pickExpr(opt Options, ev *prob.Evaluator, cond *ctable.Condition, pPhi float64) (ctable.Expr, bool) {
	avail := sel.availableExprs(cond)
	if len(avail) == 0 {
		return ctable.Expr{}, false
	}

	// Random permutation first, then a stable sort by frequency: ties are
	// broken randomly, as the paper prescribes, but reproducibly via the
	// seeded Rng. Each frequency is looked up once, before the sort.
	opt.Rng.Shuffle(len(avail), func(i, j int) { avail[i], avail[j] = avail[j], avail[i] })
	ranked := sel.ranked[:0]
	for _, e := range avail {
		ranked = append(ranked, rankedExpr{e: e, freq: sel.freq[e]})
	}
	sel.ranked = ranked
	slices.SortStableFunc(ranked, func(a, b rankedExpr) int { return b.freq - a.freq })
	for i, r := range ranked {
		avail[i] = r.e
	}

	switch opt.Strategy {
	case FBS:
		return avail[0], true

	case UBS:
		// UBS scores every available expression anyway, so the utilities
		// fan out wholesale over a component scan of the condition —
		// each candidate re-solves only the component holding its
		// variables, with the rest of the formula contributing the scan's
		// precomputed (and usually cache-served) product. Under NoCache
		// the legacy path re-solves the whole formula per candidate; the
		// two paths agree within 1e-12 (they factor the same product in a
		// different order), and the cache ablation measures their gap.
		// The argmax scan below visits the scores in the same order as
		// the sequential loop did.
		gains := utilitiesFor(opt, ev, cond, avail, pPhi)
		best, bestG := avail[0], -1.0
		for i, e := range avail {
			if gains[i] > bestG {
				best, bestG = e, gains[i]
			}
		}
		return best, true

	case HHS:
		// Algorithm 4 lines 10-22: visit in frequency order, early-stop
		// after m consecutive expressions without improvement, scoring
		// through the same per-condition component scan as UBS. With more
		// than one worker the utilities are precomputed speculatively —
		// scores past the stop point are wasted work, never a changed
		// decision, because the scan below applies the identical
		// early-stop rule to identical values. One worker keeps the lazy
		// sequential scan and today's exact work profile.
		var gain func(i int) float64
		if opt.Workers > 1 {
			gains := utilitiesFor(opt, ev, cond, avail, pPhi)
			gain = func(i int) float64 { return gains[i] }
		} else if opt.NoCache {
			gain = func(i int) float64 { return UtilityWith(ev, cond, avail[i], pPhi) }
		} else {
			scan := ev.NewCondScan(cond, pPhi)
			scan.PlanSweeps(avail)
			gain = func(i int) float64 { return UtilityScan(scan, avail[i]) }
		}
		best, bestG := avail[0], 0.0
		c := 0
		for i, e := range avail {
			g := gain(i)
			if g > bestG {
				best, bestG = e, g
				c = 0
				continue
			}
			c++
			if c == opt.M {
				break
			}
		}
		return best, true

	default:
		panic("core: unknown strategy")
	}
}

// utilitiesFor scores every candidate expression: through a component
// scan of the condition by default (one small re-solve per candidate),
// or through full-formula probes under the NoCache ablation (the legacy
// cost profile the cache experiment compares against).
func utilitiesFor(opt Options, ev *prob.Evaluator, cond *ctable.Condition, avail []ctable.Expr, pPhi float64) []float64 {
	if opt.NoCache {
		return UtilitiesWith(ev, cond, avail, pPhi, opt.Workers)
	}
	scan := ev.NewCondScan(cond, pPhi)
	return UtilitiesScan(scan, avail, opt.Workers)
}

// availableExprs returns the condition's distinct expressions whose
// variables are all unused in the current batch (sel.used), in order of
// first appearance in build order — the order the seeded shuffle
// consumes. The result lives in sel's scratch until the next call.
func (sel *Selection) availableExprs(cond *ctable.Condition) []ctable.Expr {
	if sel.seen == nil {
		sel.seen = map[ctable.Expr]struct{}{}
	}
	clear(sel.seen)
	out := sel.avail[:0]
	sel.exprs = cond.AppendExprs(sel.exprs[:0])
	for _, e := range sel.exprs {
		if _, dup := sel.seen[e]; dup {
			continue
		}
		sel.seen[e] = struct{}{}
		if !sel.used[e.X] && (e.Kind != ctable.VarGTVar || !sel.used[e.Y]) {
			out = append(out, e)
		}
	}
	sel.avail = out
	return out
}
