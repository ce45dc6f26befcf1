package crowd

import (
	"errors"
	"fmt"
	"math/rand"

	"bayescrowd/internal/ctable"
	"bayescrowd/internal/obs"
)

// ErrOutage is the round-level error Unreliable returns when the whole
// platform is down for a round: no tasks were listed and no answers
// arrived. Callers should retry the round (with backoff) or degrade.
var ErrOutage = errors.New("crowd: platform outage: round failed")

// Unreliable wraps any Platform with seeded, deterministic fault
// injection — the failure modes a live marketplace (the paper's §7.5 AMT
// deployment) exhibits and the simulators hide:
//
//   - round outages: with probability OutageProb a Post call fails
//     outright (ErrOutage), delivering nothing;
//   - task drops: each answer is lost with probability DropProb (an
//     expired HIT, a straggler past the deadline) — Post then returns a
//     partial answer set with a nil error;
//   - spammers: each surviving answer is replaced with a uniformly
//     random relation with probability SpamProb (a worker answering
//     without reading the question);
//   - latency: through PostAsync, each delivered answer is stamped with
//     a seeded arrival delay drawn uniformly from [MinDelay, MaxDelay]
//     ticks — the straggling-worker model the streaming crowd loop runs
//     against.
//
// All draws come from the wrapper's own Rng in a fixed order — one
// outage draw per round, then one drop and one spam draw per answer in
// answer order (the spam draw is consumed even when the drop fires, so
// the schedule downstream of a task never depends on that task's fate),
// then one delay draw per delivered answer in delivery order (PostAsync
// only) — independent of the inner platform's randomness, so a fixed
// seed reproduces the exact same fault schedule run after run.
//
// When a drop and a spam fire on the same answer, the drop wins: a
// dropped answer never reaches the requester, spammy or not, so it
// counts in Dropped only and no spam event is emitted.
type Unreliable struct {
	Inner Platform
	// DropProb is the per-task probability the answer never arrives.
	DropProb float64
	// OutageProb is the per-round probability the whole Post call fails.
	OutageProb float64
	// SpamProb is the per-task probability a delivered answer is replaced
	// by a uniformly random relation.
	SpamProb float64
	// MinDelay and MaxDelay bound the per-answer arrival delay PostAsync
	// draws, in logical ticks (inclusive). Both zero — the default —
	// models a prompt crowd: every answer lands within its posting tick.
	// MaxDelay below MinDelay is treated as a constant MinDelay-tick
	// delay.
	MinDelay int
	MaxDelay int
	// Rng drives the injection; required when any probability is
	// positive or the delay range spans more than one value.
	Rng *rand.Rand

	// Dropped, Spammed and Outages count the injected faults.
	Dropped int
	Spammed int
	Outages int

	// Obs, when non-nil, receives a trace event per injected fault
	// (fault.outage, fault.drop, fault.spam). Post runs on the
	// framework's sequential round loop and the injection schedule is a
	// pure function of the wrapper's seed, so the events are
	// deterministic.
	Obs *obs.Recorder
}

// NewUnreliable wraps inner with fault injection. Probabilities must be
// in [0,1); rng is required when any of them is positive.
func NewUnreliable(inner Platform, dropProb, outageProb, spamProb float64, rng *rand.Rand) *Unreliable {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", dropProb}, {"outage", outageProb}, {"spam", spamProb}} {
		if p.v < 0 || p.v >= 1 {
			panic(fmt.Sprintf("crowd: %s probability %v outside [0,1)", p.name, p.v))
		}
	}
	if (dropProb > 0 || outageProb > 0 || spamProb > 0) && rng == nil {
		panic("crowd: fault injection needs an Rng")
	}
	return &Unreliable{Inner: inner, DropProb: dropProb, OutageProb: outageProb, SpamProb: spamProb, Rng: rng}
}

// Post forwards the batch to the inner platform and injects the
// configured faults into the result. With all probabilities zero it is a
// transparent proxy: the inner answers pass through untouched.
func (u *Unreliable) Post(tasks []Task) ([]Answer, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	if u.OutageProb > 0 && u.Rng.Float64() < u.OutageProb {
		u.Outages++
		u.Obs.Emit(obs.Event{Kind: obs.KindFaultOutage, N: len(tasks)})
		return nil, ErrOutage
	}
	answers, err := u.Inner.Post(tasks)
	if err != nil {
		return answers, err
	}
	kept := answers[:0]
	for _, a := range answers {
		// Both draws are consumed for every answer, dropped or not, so
		// the injection schedule of the answers after this one is a pure
		// function of their position — a drop firing here can never
		// shift a later task's spam draw. When both fire the drop wins
		// (a dropped answer never reaches the requester): the answer
		// counts in Dropped only, and the spam relation is not drawn.
		dropped := u.DropProb > 0 && u.Rng.Float64() < u.DropProb
		spammed := u.SpamProb > 0 && u.Rng.Float64() < u.SpamProb
		if dropped {
			u.Dropped++
			if u.Obs.On() {
				u.Obs.Emit(obs.Event{Kind: obs.KindFaultDrop, Task: a.Task.Expr.String()})
			}
			continue
		}
		if spammed {
			u.Spammed++
			a.Rel = []ctable.Rel{ctable.LT, ctable.EQ, ctable.GT}[u.Rng.Intn(3)]
			if u.Obs.On() {
				u.Obs.Emit(obs.Event{Kind: obs.KindFaultSpam, Task: a.Task.Expr.String(), Rel: a.Rel.String()})
			}
		}
		kept = append(kept, a)
	}
	return kept, nil
}

// PostAsync posts the batch through the same fault pipeline as Post and
// stamps every delivered answer with a seeded arrival delay, drawn
// uniformly from [MinDelay, MaxDelay] in delivery order after the
// round's drop/spam draws. The delay draws consume the same Rng, so a
// synchronous Post and a PostAsync run are different schedules — pick
// one channel per platform instance.
func (u *Unreliable) PostAsync(tasks []Task) ([]DelayedAnswer, error) {
	if u.MinDelay < 0 {
		panic(fmt.Sprintf("crowd: negative MinDelay %d", u.MinDelay))
	}
	if u.MaxDelay > u.MinDelay && u.Rng == nil {
		panic("crowd: a delay range needs an Rng")
	}
	answers, err := u.Post(tasks)
	out := make([]DelayedAnswer, len(answers))
	for i, a := range answers {
		d := u.MinDelay
		if u.MaxDelay > u.MinDelay {
			d += u.Rng.Intn(u.MaxDelay - u.MinDelay + 1)
		}
		out[i] = DelayedAnswer{Answer: a, Delay: d}
	}
	return out, err
}
