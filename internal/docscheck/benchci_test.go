package docscheck

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// benchArgsRe captures the -bench regex of a go test command line.
var benchArgsRe = regexp.MustCompile(`-bench '([^']*)'`)

// benchCommand returns the -bench regex and the package list of the
// first line of text, past the first line prefix matches, that holds a
// one-iteration go test bench run.
func benchCommand(t *testing.T, name, text, prefix string) (regex string, pkgs []string) {
	t.Helper()
	lines := strings.Split(text, "\n")
	start := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, prefix) })
	if start < 0 {
		t.Fatalf("%s: no line starts with %q", name, prefix)
	}
	for _, l := range lines[start:] {
		if !strings.Contains(l, "go test") || !strings.Contains(l, "-benchtime 1x") {
			continue
		}
		m := benchArgsRe.FindStringSubmatch(l)
		if m == nil {
			t.Fatalf("%s: bench command without a quoted -bench regex: %s", name, l)
		}
		for _, f := range strings.Fields(l) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		return m[1], pkgs
	}
	t.Fatalf("%s: no one-iteration go test bench command after %q", name, prefix)
	return "", nil
}

// TestBenchCIMatchesWorkflow checks that the Makefile's bench-ci target
// runs the benchmarks the CI workflow's one-iteration bench step runs:
// the same -bench regex over the same packages in the same order, so
// `make bench-ci` reproduces the CI step.
func TestBenchCIMatchesWorkflow(t *testing.T) {
	root := repoRoot(t)
	read := func(rel string) string {
		data, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	makeRegex, makePkgs := benchCommand(t, "Makefile", read("Makefile"), "bench-ci:")
	ciRegex, ciPkgs := benchCommand(t, "ci.yml", read(filepath.Join(".github", "workflows", "ci.yml")), "jobs:")
	if makeRegex != ciRegex {
		t.Errorf("bench-ci runs -bench %q, ci.yml -bench %q", makeRegex, ciRegex)
	}
	if !slices.Equal(makePkgs, ciPkgs) || len(makePkgs) == 0 {
		t.Errorf("bench-ci runs packages %v, ci.yml %v", makePkgs, ciPkgs)
	}
}
