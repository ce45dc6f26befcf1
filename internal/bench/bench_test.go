package bench

import (
	"bytes"
	"strings"
	"testing"
)

// microScale is a drastically shrunk configuration so every experiment can
// run inside the unit-test suite.
func microScale() Scale {
	s := Quick()
	s.Name = "micro"
	s.NBASize, s.SynSize = 200, 250
	s.NBAAlpha, s.SynAlpha = 0.05, 0.05
	s.NBABudget, s.SynBudget = 10, 12
	s.NBAM, s.SynM = 2, 2
	s.MissingRates = []float64{0.1, 0.2}
	s.NBACardinalities = []int{60, 120}
	s.SynCardinalities = []int{60, 120}
	s.NBABudgets = []int{4, 8}
	s.SynBudgets = []int{4, 8}
	s.Ms = []int{1, 2}
	s.Alphas = []float64{0.02, 0.05}
	s.Accuracies = []float64{0.8, 1.0}
	s.Latencies = []int{2, 4}
	s.NaiveCap = 1e5
	s.Reps = 1
	s.ScaleNs = []int{300, 600}
	s.ScalePairwiseCap = 400
	s.StreamWindow = 40
	s.StreamTicks = 30
	return s
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Notes:  []string{"a caveat"},
	}
	tab.AddRow("1", "x")
	tab.AddRow("22222", "y")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== demo ==", "long-header", "22222", "note: a caveat"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: header and rows share the first column width.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "a    ") {
		t.Errorf("narrow header not padded: %q", lines[1])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := Run(&buf, "fig99", microScale()); err == nil {
		t.Fatal("Run accepted unknown experiment id")
	}
}

func TestNamesCoverAllExperiments(t *testing.T) {
	names := Names()
	if len(names) != len(Experiments) {
		t.Fatalf("Names() returned %d ids, registry has %d", len(names), len(Experiments))
	}
	if names[0] != "fig2" || names[len(names)-1] != "streamcrowd" {
		t.Fatalf("unexpected presentation order: %v", names)
	}
}

// TestEveryExperimentRunsAtMicroScale executes each registered experiment
// end to end and sanity-checks its output structure.
func TestEveryExperimentRunsAtMicroScale(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-scale experiment sweep skipped in -short mode")
	}
	s := microScale()
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(&buf, name, s); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "==") {
				t.Fatalf("no table emitted:\n%s", out)
			}
			if strings.Contains(out, "NaN") {
				t.Fatalf("NaN in output:\n%s", out)
			}
		})
	}
}

func TestScalesAreComplete(t *testing.T) {
	for _, s := range []Scale{Quick(), Paper()} {
		if s.NBASize <= 0 || s.SynSize <= 0 || s.Reps < 1 {
			t.Errorf("%s: bad sizes/reps", s.Name)
		}
		if len(s.MissingRates) == 0 || len(s.NBACardinalities) == 0 ||
			len(s.SynCardinalities) == 0 || len(s.NBABudgets) == 0 || len(s.SynBudgets) == 0 ||
			len(s.DropRates) == 0 {
			t.Errorf("%s: empty sweep", s.Name)
		}
		if s.DropRates[0] != 0 {
			t.Errorf("%s: DropRates must start with the fault-free baseline", s.Name)
		}
		if s.NaiveCap <= 0 || s.AMTAccuracy <= 0 || s.AMTAccuracy > 1 {
			t.Errorf("%s: bad caps", s.Name)
		}
	}
}

func TestRunBayesRepsAggregation(t *testing.T) {
	s := microScale()
	e := nbaEnv(s, 80, 0.15)
	opt := nbaOpts(s, 0) // FBS
	one := runBayesReps(e, opt, 1.0, s.Seed, 1)
	agg := runBayesReps(e, opt, 1.0, s.Seed, 3)
	for _, o := range []outcome{one, agg} {
		if o.f1 < 0 || o.f1 > 1 {
			t.Fatalf("f1 = %v outside [0,1]", o.f1)
		}
		if o.tasks < 0 || o.rounds < 0 || o.elapsed <= 0 {
			t.Fatalf("bad outcome %+v", o)
		}
	}
	// reps < 1 clamps to one run.
	clamped := runBayesReps(e, opt, 1.0, s.Seed, 0)
	if clamped.tasks < 0 {
		t.Fatal("clamped reps broke aggregation")
	}
}

func TestEnvLazyDistsComputedOnce(t *testing.T) {
	s := microScale()
	e := nbaEnv(s, 60, 0.2)
	first := e.dists()
	second := e.dists()
	if len(first) == 0 {
		t.Fatal("no distributions for an incomplete dataset")
	}
	// Same map instance: computed once, cached.
	if &first == &second {
		t.Skip("cannot compare map headers directly")
	}
	for k, v := range first {
		w, ok := second[k]
		if !ok || &v[0] != &w[0] {
			t.Fatal("dists recomputed instead of cached")
		}
		break
	}
}

func TestDescriptionsCoverAllExperiments(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Experiments {
		if e.Description == "" {
			t.Errorf("experiment %q has no description", e.ID)
		}
		if e.Run == nil {
			t.Errorf("experiment %q has no runner", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("experiment %q registered twice", e.ID)
		}
		seen[e.ID] = true
	}
}
