package stream

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/prob"
)

// TestCrowdIndexInvariants checks the sets the crowd loop derives from
// the table's dominance index, and the incrementally simplified
// condition cache, after every tick of seeded, faulted runs: a small
// window whose objects live a few ticks, answer delays past both that
// lifetime and the task deadline, UBS and HHS, at 1 and 4 workers.
// After each tick
//   - the tick's post-step exclusion set equals the brute-force filter:
//     the cached conditions (as of the post step) of surviving objects
//     that mention a variable of a non-live object;
//   - the tick's stale set equals the brute-force one: the dirty ids
//     plus the live ids whose pre-tick cached condition mentions a
//     variable an answer touched;
//   - every cached condition is clause-for-clause the table's condition
//     simplified under the current knowledge;
//   - the evaluator numbers exactly the live variables, in (Obj, Attr)
//     order, each at its prior unless an answer narrowed it to its
//     knowledge bounds (checkNumbering).
func TestCrowdIndexInvariants(t *testing.T) {
	for _, strat := range []core.Strategy{core.UBS, core.HHS} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers%d", strat, workers), func(t *testing.T) {
				checkIndexRun(t, strat, workers)
			})
		}
	}
}

func checkIndexRun(t *testing.T, strat core.Strategy, workers int) {
	const deadline = 3
	priors := priorLog{}
	sc := genCrowdScript(rand.New(rand.NewSource(97)), 60, 2, 0.45)
	sim := crowd.NewSimulated(sc.truth, 0.85, rand.New(rand.NewSource(41)))
	platform := crowd.NewUnreliable(sim, 0.1, 0.05, 0.1, rand.New(rand.NewSource(42)))
	// A count-8 window with two arrivals a tick holds an object for four
	// ticks: delays up to 6 outlive both it and the deadline.
	platform.MinDelay, platform.MaxDelay = 0, 6
	ce, err := NewCrowd(CrowdConfig{
		Config:       Config{Attrs: sc.attrs, Window: Window{Count: 8}, Workers: workers, Dist: priors.dist},
		Platform:     platform,
		Budget:       200,
		TasksPerTick: 3,
		TaskDeadline: deadline,
		Strategy:     strat,
		M:            2,
		Rng:          rand.New(rand.NewSource(43)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]dataset.Cell
	for _, batch := range sc.ticks {
		rows = append(rows, batch...)
	}
	var excluded, answerStale, absorbed, stale, expired, narrowed int
	for tick, batch := range sc.ticks {
		pre := maps.Clone(ce.conds)
		res := ce.Tick(int64(tick), batch)
		tag := fmt.Sprintf("tick %d", tick)
		want := bruteForceGone(ce, pre)
		if !reflect.DeepEqual(sortedIDs(ce.gone), want) {
			t.Fatalf("%s: exclusion set %v, brute-force filter %v", tag, sortedIDs(ce.gone), want)
		}
		answerStale += checkStaleSet(t, tag, ce, pre, res)
		checkCondsSimplified(t, tag, ce)
		narrowed += checkNumbering(t, tag, ce, rows, priors)
		excluded += len(want)
		absorbed += res.Crowd.Absorbed
		stale += res.Crowd.Stale + res.Crowd.Late
		expired += res.Crowd.Expired
	}
	if excluded == 0 || answerStale == 0 || absorbed == 0 || stale == 0 || expired == 0 || narrowed == 0 {
		t.Fatalf("vacuous run: %d excluded candidates, %d stale only through answers, %d absorbed, %d stale or late, %d expired, %d narrowed variable-ticks",
			excluded, answerStale, absorbed, stale, expired, narrowed)
	}
}

// checkStaleSet asserts the tick's stale set is the brute-force one:
// the ids the table marked dirty (every arrival among them, every
// excluded id too) plus each live id whose pre-tick cached condition
// mentions a variable an answer touched, marked not dirty unless it is.
// It returns how many ids were stale only through an answer.
func checkStaleSet(t *testing.T, tag string, ce *CrowdEngine, pre map[int]*ctable.Condition, res CrowdTickResult) int {
	t.Helper()
	want := map[int]bool{}
	for id, dirty := range ce.staleScratch {
		if dirty {
			want[id] = true
		}
	}
	for _, id := range res.Inserted {
		if !want[id] {
			t.Fatalf("%s: arrival %d is not dirty", tag, id)
		}
	}
	for id := range ce.gone {
		if !want[id] {
			t.Fatalf("%s: excluded id %d is not dirty", tag, id)
		}
	}
	n := 0
	for id, cond := range pre {
		if !ce.eng.tbl.Live(id) || want[id] {
			continue
		}
		for _, v := range cond.Vars() {
			if ce.ab.Touched.HasVar(ce.eng.ev.IDs, v) {
				want[id] = false
				n++
				break
			}
		}
	}
	if !reflect.DeepEqual(ce.staleScratch, want) {
		t.Fatalf("%s: stale set %v, brute force %v", tag, ce.staleScratch, want)
	}
	if res.Recomputed != len(want) {
		t.Fatalf("%s: recomputed %d of %d stale ids", tag, res.Recomputed, len(want))
	}
	return n
}

// bruteForceGone is the selection filter the exclusion set replaced:
// the cached conditions the post step saw (pre, less this tick's
// evictions) that mention a variable whose object is not live.
func bruteForceGone(ce *CrowdEngine, pre map[int]*ctable.Condition) []int {
	out := []int{}
	for id, cond := range pre {
		if !ce.eng.tbl.Live(id) {
			continue
		}
		for _, v := range cond.Vars() {
			if !ce.eng.tbl.Live(v.Obj) {
				out = append(out, id)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}

// checkCondsSimplified asserts every cached condition equals the
// table's condition simplified under the current knowledge.
func checkCondsSimplified(t *testing.T, tag string, ce *CrowdEngine) {
	t.Helper()
	if got, want := len(ce.conds), ce.Len(); got != want {
		t.Fatalf("%s: %d cached conditions for %d live objects", tag, got, want)
	}
	for id, cond := range ce.conds {
		ref := ce.eng.tbl.Cond(id, nil).Simplified(ce.know)
		gv, gd := cond.Decided()
		rv, rd := ref.Decided()
		if gv != rv || gd != rd || !reflect.DeepEqual(cond.Clauses(), ref.Clauses()) {
			t.Fatalf("%s: cached condition of %d is %v, the table's simplified is %v", tag, id, cond, ref)
		}
	}
}

// priorLog is a Uniform DistFunc that keeps every prior it hands out,
// so a test can tell which variable's prior a state holds.
type priorLog map[ctable.Var][]float64

func (l priorLog) dist(id, attr, levels int) []float64 {
	d := Uniform(id, attr, levels)
	l[ctable.Var{Obj: id, Attr: attr}] = d
	return d
}

// checkNumbering asserts the evaluator's window numbering: ev.IDs numbers
// exactly the live objects' variables (rows[id] holds object id's
// cells), densely in (Obj, Attr) order, and each one's state holds its
// own prior from priors as Base, narrowed to its knowledge bounds when
// an answer bounded it and the prior itself otherwise. The knowledge,
// which keeps its intervals by the same ids and slides them at each
// eviction, must agree with the state: Bounds is the state's Interval
// when it is Narrowed and the full domain otherwise.
// It returns how many live variables are narrowed.
func checkNumbering(t *testing.T, tag string, ce *CrowdEngine, rows [][]dataset.Cell, priors priorLog) int {
	t.Helper()
	ev := ce.eng.ev
	var live []ctable.Var
	for _, en := range ce.eng.queue {
		live = ctable.MissingVars(en.id, rows[en.id], live)
	}
	if ev.IDs.Len() != len(live) || len(ev.Vars) != len(live) {
		t.Fatalf("%s: %d ids and %d states for %d live variables", tag, ev.IDs.Len(), len(ev.Vars), len(live))
	}
	narrowed := 0
	for i, v := range live {
		if id, ok := ev.IDs.ID(v); !ok || int(id) != i {
			t.Fatalf("%s: %v has id %d, %v; its (Obj, Attr) rank is %d", tag, v, id, ok, i)
		}
		levels, prior := ce.cfg.Attrs[v.Attr].Levels, priors[v]
		st := ev.Vars[i]
		if len(prior) != levels || len(st.Base) != levels || &st.Base[0] != &prior[0] {
			t.Fatalf("%s: %v does not hold its own prior as base", tag, v)
		}
		lo, hi := ce.know.Bounds(v)
		stateIv := prob.Interval{Hi: levels - 1}
		if st.Narrowed {
			stateIv = st.Interval
		}
		if (prob.Interval{Lo: lo, Hi: hi}) != stateIv {
			t.Fatalf("%s: %v has knowledge bounds [%d,%d], its state %+v", tag, v, lo, hi, stateIv)
		}
		want := prob.VarState{Base: prior, Dist: prior}
		if lo != 0 || hi != levels-1 {
			ref := prob.NewEvaluator(prob.Dists{v: prior})
			ref.Narrow(v, prob.Interval{Lo: lo, Hi: hi})
			want = ref.Vars[0]
			narrowed++
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("%s: %v has state %+v, want %+v", tag, v, st, want)
		}
	}
	return narrowed
}

func sortedIDs(set map[int]bool) []int {
	out := []int{}
	for id := range set {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// BenchmarkCrowdTick measures steady-state crowd ticks on one fixed
// schedule: a 1000-object window of NBA rows with 10% of the cells
// missing, then 300 ticks of one arrival and one eviction each, UBS
// posting 2 tasks a tick, within a budget of 600, to a crowd that
// answers 1–3 ticks later. Each iteration replays the whole schedule on
// a fresh engine; the engine and the window fill are set-up, outside the
// timing. It reports ns/tick and allocs/tick over the timed ticks;
// solves/tick, the component-cache misses over the timed ticks
// (CacheStats), each one a component the kernel solved or swept because
// no cached value served it; and retainedB/obj: the live heap after a GC
// at the end of the schedule minus the live heap before the engine was
// built, per window object — the in-process counterpart of e2ebench's
// retained_kb_per_query. solves/tick is a work count, exact at the
// schedule's 2 workers unless two workers miss one key at the same time:
// then both solve it and both count.
func BenchmarkCrowdTick(b *testing.B) {
	const window, ticks = 1000, 300
	truth := dataset.GenNBA(rand.New(rand.NewSource(1)), window+ticks)
	holes := truth.InjectMissing(rand.New(rand.NewSource(2)), 0.1)
	rows := make([][]dataset.Cell, len(holes.Objects))
	for i, o := range holes.Objects {
		rows[i] = o.Cells
	}
	b.ReportAllocs()
	var elapsed time.Duration
	var allocs, retained, solves uint64
	var ms runtime.MemStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		heap := ms.HeapAlloc
		platform := crowd.NewUnreliable(crowd.NewSimulated(truth, 1, nil), 0, 0, 0, rand.New(rand.NewSource(3)))
		platform.MinDelay, platform.MaxDelay = 1, 3
		ce, err := NewCrowd(CrowdConfig{
			Config:       Config{Attrs: truth.Attrs, Window: Window{Count: window}, Workers: 2},
			Platform:     platform,
			Budget:       600,
			TasksPerTick: 2,
			TaskDeadline: 4,
			Strategy:     core.UBS,
			Rng:          rand.New(rand.NewSource(4)),
		})
		if err != nil {
			b.Fatal(err)
		}
		ce.Tick(0, rows[:window])
		misses := ce.CacheStats().Misses
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		b.StartTimer()
		start := time.Now()
		for t := 0; t < ticks; t++ {
			ce.Tick(int64(t+1), rows[window+t:window+t+1])
		}
		elapsed += time.Since(start)
		b.StopTimer()
		solves += ce.CacheStats().Misses - misses
		runtime.ReadMemStats(&ms)
		allocs += ms.Mallocs - mallocs
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > heap {
			retained += ms.HeapAlloc - heap
		}
		runtime.KeepAlive(ce)
		b.StartTimer()
	}
	n := float64(b.N * ticks)
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/tick")
	b.ReportMetric(float64(allocs)/n, "allocs/tick")
	b.ReportMetric(float64(solves)/n, "solves/tick")
	b.ReportMetric(float64(retained)/float64(b.N*window), "retainedB/obj")
}
