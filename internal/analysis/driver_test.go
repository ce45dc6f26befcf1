package analysis

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenDirs are the testdata packages TestGolden loads as roots. The
// guarded and pool packages carry no want comments: they are the owner
// and pool stand-ins and must come out clean.
var goldenDirs = []string{
	"determinism", "guarded", "singlewriter", "errdrop",
	"pool", "goroutine", "floatcmp", "ignore", "doccomment", "hotalloc",
	"lockcheck", "lockcopy", "ledger", "ledger/outside",
}

// goldenConfig mirrors RepoConfig with every contract pointed at the
// testdata packages instead of the real module internals.
func goldenConfig(modulePath string) *Config {
	td := modulePath + "/internal/analysis/testdata/src"
	return &Config{
		ModulePath:           modulePath,
		DeterminismPkgs:      []string{td + "/determinism", td + "/ignore"},
		SingleWriterOwners:   []string{td + "/guarded"},
		GuardedTypes:         []string{td + "/guarded.Evaluator", td + "/guarded.Cache"},
		MutatingMethods:      []string{td + "/guarded.Cache.Invalidate"},
		MustCheck:            []string{td + "/guarded.Platform.Post"},
		PoolPkg:              td + "/pool",
		ScratchTypePattern:   regexp.MustCompile(`(?i)(solver|scratch)`),
		EpsilonHelperPattern: regexp.MustCompile(`(?i)(approx|almost|close|within|eps)`),
		HotPathRoots:         []string{td + "/hotalloc.Scanner.Score"},
		DocPkgs:              []string{td + "/doccomment"},
		LedgerTypes:          []string{td + "/ledger.Ledger", td + "/ledger.Stats"},
		LedgerRoots:          []string{td + "/ledger.Engine.Tick", td + "/ledger/outside.Loop.Tick"},
		LedgerBoundaries:     []string{td + "/ledger.Platform.Post"},
		LedgerHelpers:        []string{td + "/ledger.Ledger.Reserve"},
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// want is one expected diagnostic, parsed from a // want `regex`
// comment (several backquoted regexes may share one line).
type want struct {
	re      *regexp.Regexp
	matched bool
}

var (
	wantLineRe    = regexp.MustCompile(`// want (.*)$`)
	wantPatternRe = regexp.MustCompile("`([^`]*)`")
)

// parseWants scans the golden sources for want comments, keyed by
// "basename:line".
func parseWants(t *testing.T, root string) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, dir := range goldenDirs {
		pattern := filepath.Join(root, "internal", "analysis", "testdata", "src", dir, "*.go")
		files, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no golden sources match %s", pattern)
		}
		for _, file := range files {
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			for line := 1; sc.Scan(); line++ {
				m := wantLineRe.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				key := filepath.Base(file) + ":" + strconv.Itoa(line)
				pats := wantPatternRe.FindAllStringSubmatch(m[1], -1)
				if len(pats) == 0 {
					t.Errorf("%s: want comment without a backquoted pattern", key)
				}
				for _, p := range pats {
					wants[key] = append(wants[key], &want{re: regexp.MustCompile(p[1])})
				}
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
		}
	}
	return wants
}

// TestGolden runs every analyzer (and the directive machinery) over the
// testdata packages and matches the diagnostics against the // want
// comments in both directions: no unexpected findings, no missed ones.
func TestGolden(t *testing.T) {
	root := moduleRoot(t)
	patterns := make([]string, len(goldenDirs))
	for i, dir := range goldenDirs {
		patterns[i] = "./internal/analysis/testdata/src/" + dir
	}
	prog, err := Load(root, patterns, false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(prog, goldenConfig(prog.ModulePath), Analyzers(), 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	wants := parseWants(t, root)
	for _, d := range diags {
		key := filepath.Base(d.Pos.Filename) + ":" + strconv.Itoa(d.Pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q was not reported", key, w.re)
			}
		}
	}
}

// TestRepoClean is the meta-gate: the analyzers with the real repo
// config must report nothing on the module itself — exactly what
// `bayeslint ./...` asserts in CI.
func TestRepoClean(t *testing.T) {
	root := moduleRoot(t)
	prog, err := Load(root, []string{"./..."}, false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := Run(prog, RepoConfig(prog.ModulePath), Analyzers(), 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo not lint-clean: %s", d)
	}
}

// TestMissingReasonDirective pins the one malformed-directive shape the
// golden files cannot carry: a reason-less directive would swallow the
// want comment as its reason, so it is exercised directly.
func TestMissingReasonDirective(t *testing.T) {
	fset := token.NewFileSet()
	const src = "package x\n\n//lint:ignore determinism\nfunc f() {}\n"
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Fset: fset}
	pkg := &Package{Files: []*ast.File{f}}
	dirs := parseDirectives(prog, pkg, map[string]bool{"determinism": true})
	diags := applyDirectives(nil, dirs, map[string]bool{"determinism": true})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "bayeslint" || !strings.Contains(d.Message, "missing reason") {
		t.Errorf("unexpected diagnostic: %s", d)
	}
	if d.Pos.Line != 3 {
		t.Errorf("diagnostic at line %d, want 3", d.Pos.Line)
	}
}

// TestDiagnosticString pins the file:line:col rendering the CI log and
// editors parse.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Pos:      token.Position{Filename: "a/b.go", Line: 7, Column: 3},
		Analyzer: "determinism",
		Message:  "boom",
	}
	if got, wantStr := d.String(), "a/b.go:7:3: boom (determinism)"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}
