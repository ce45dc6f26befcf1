package core

import (
	"math/rand"
	"testing"

	"bayescrowd/internal/crowd"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/obs"
)

// TestApproxThresholdWiring pins the end-to-end plumbing of the
// ApproxCount fallback: with a low threshold the run estimates some
// components, reports the count on the Result, and mirrors it in the
// metrics registry; and with the threshold off the count stays zero.
func TestApproxThresholdWiring(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	truth := dataset.GenNBA(rng, 150)
	d := truth.InjectMissing(rng, 0.25)
	opts := func() Options {
		return Options{
			Alpha:    0.05,
			Budget:   20,
			Latency:  4,
			Strategy: FBS,
			Workers:  1,
			Rng:      rand.New(rand.NewSource(5)),
		}
	}

	exactOpt := opts()
	exact, err := Run(d, crowd.NewSimulated(truth, 1.0, nil), exactOpt)
	if err != nil {
		t.Fatal(err)
	}
	if exact.ApproxComponents != 0 {
		t.Fatalf("exact run reports %d approximated components, want 0", exact.ApproxComponents)
	}

	reg := obs.NewRegistry()
	approxOpt := opts()
	approxOpt.ApproxThreshold = 2
	approxOpt.Metrics = reg
	approx, err := Run(d, crowd.NewSimulated(truth, 1.0, nil), approxOpt)
	if err != nil {
		t.Fatal(err)
	}
	if approx.ApproxComponents == 0 {
		t.Fatal("threshold 2 never tripped the fallback on an NBA workload")
	}
	if got := reg.Counter("prob.approx.components").Value(); got != approx.ApproxComponents {
		t.Fatalf("metrics counter %d != Result.ApproxComponents %d", got, approx.ApproxComponents)
	}

	bad := opts()
	bad.ApproxThreshold = -1
	if _, err := Run(d, crowd.NewSimulated(truth, 1.0, nil), bad); err == nil {
		t.Fatal("negative ApproxThreshold was accepted")
	}
}
