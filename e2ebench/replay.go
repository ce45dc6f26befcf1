package main

import (
	"fmt"
	"time"

	"bayescrowd/internal/core"
	"bayescrowd/internal/crowd"
	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
	"bayescrowd/internal/prob"
)

// timedPlatform is the replay's crowd: the simulated crowd behind a
// stopwatch, so crowd time can be told apart from machine time.
type timedPlatform struct {
	inner crowd.Platform
	spent time.Duration
}

// Post forwards to the inner platform and books the time it took.
func (p *timedPlatform) Post(tasks []crowd.Task) ([]crowd.Answer, error) {
	start := time.Now()
	answers, err := p.inner.Post(tasks)
	p.spent += time.Since(start)
	return answers, err
}

// svcReplay is the traced pass's in-process replay of every spec of the
// cycle, one at a time: the machine cost of each layer with nothing
// else running, which the daemon cannot yet report from inside.
type svcReplay struct {
	machine []time.Duration // per spec: build + crowd phase − crowd time
	metrics map[string]float64
}

// replaySvc times core.Preprocess once, then per spec ctable.Build, the
// initial Pr(φ) over the undecided conditions (prob.Evaluator.ProbAll on
// a fresh evaluator and cache, as the crowd phase starts), and
// core.RunCrowdPhase with a timed crowd and a private registry.
func replaySvc(in *svcInputs) (*svcReplay, error) {
	start := time.Now()
	if _, err := core.Preprocess(in.data, core.Options{Workers: daemonWorkers}); err != nil {
		return nil, fmt.Errorf("replay preprocess: %w", err)
	}
	preprocess := time.Since(start)

	rp := &svcReplay{machine: make([]time.Duration, len(in.specs))}
	var build, initial, sel, maint, round, post, wall, probTotal time.Duration
	var rounds int64
	undecided := 0
	for i, req := range in.specs {
		t := time.Now()
		ct := ctable.Build(in.data, ctable.BuildOptions{Alpha: req.Alpha, Workers: daemonWorkers})
		b := time.Since(t)
		und := ct.Undecided()
		conds := make([]*ctable.Condition, len(und))
		for j, o := range und {
			conds[j] = ct.Conds[o]
		}
		ev := &prob.Evaluator{Dists: in.base, Cache: prob.NewComponentCache(0)}
		t = time.Now()
		ev.ProbAll(conds, daemonWorkers)
		init := time.Since(t)

		plat := &timedPlatform{inner: crowd.NewSimulated(in.truth, 1, nil)}
		reg := obs.NewRegistry()
		opt := libOptions(req)
		opt.Metrics = reg
		t = time.Now()
		res, err := core.RunCrowdPhase(in.data, ct, in.base, plat, opt)
		phase := time.Since(t)
		if err != nil {
			return nil, fmt.Errorf("replay spec %d: %w", i, err)
		}
		if !equalInts(res.Answers, in.want[i].answers) {
			return nil, fmt.Errorf("replay spec %d: answer set differs from the library's", i)
		}

		h := reg.Histogram("round.duration")
		rp.machine[i] = b + phase - plat.spent
		build += b
		initial += init
		undecided += len(und)
		sel += res.SelectTime
		maint += res.ProbTime - init
		probTotal += res.ProbTime
		round += h.Sum()
		rounds += h.Count()
		post += plat.spent
		wall += b + phase
	}
	n := float64(len(in.specs))
	perRound := func(d time.Duration) float64 {
		if rounds == 0 {
			return 0
		}
		return ms(d) / float64(rounds)
	}
	rp.metrics = map[string]float64{
		"core.preprocess_s":          preprocess.Seconds(),
		"ctable.build_ms":            ms(build) / n,
		"ctable.undecided_per_query": float64(undecided) / n,
		"prob.initial_ms":            ms(initial) / n,
		"core.select_ms_per_round":   perRound(sel),
		"prob.maintain_ms_per_round": perRound(maint),
		"core.other_ms_per_round":    perRound(round - sel - maint - post),
		"core.attributed_share":      float64(build+probTotal+sel+post) / float64(wall),
	}
	return rp, nil
}
