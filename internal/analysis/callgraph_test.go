package analysis

import (
	"sort"
	"strings"
	"testing"
)

// loadGolden loads the named testdata packages and builds the call
// graph with the golden config.
func loadGolden(t *testing.T, dirs ...string) (*Program, *callGraph) {
	t.Helper()
	root := moduleRoot(t)
	patterns := make([]string, len(dirs))
	for i, d := range dirs {
		patterns[i] = "./internal/analysis/testdata/src/" + d
	}
	prog, err := Load(root, patterns, false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return prog, buildCallGraph(prog, goldenConfig(prog.ModulePath))
}

// edgesBetween collects the edges from the caller (by display name) to
// the callee (by display name).
func edgesBetween(g *callGraph, caller, callee string) []*cgEdge {
	var out []*cgEdge
	for _, n := range g.Nodes {
		if n.Name != caller {
			continue
		}
		for _, e := range n.Out {
			if e.Callee.Name == callee {
				out = append(out, e)
			}
		}
	}
	return out
}

// TestCallGraphStaticEdge pins direct method-call resolution.
func TestCallGraphStaticEdge(t *testing.T) {
	_, g := loadGolden(t, "hotalloc", "pool")
	edges := edgesBetween(g, "Score", "solve")
	if len(edges) != 1 {
		t.Fatalf("Score->solve: got %d edges, want 1", len(edges))
	}
	if e := edges[0]; e.Kind != edgeStatic || e.Async {
		t.Errorf("Score->solve: kind=%v async=%v, want static sync", e.Kind, e.Async)
	}
}

// TestCallGraphMethodValueEdge pins resolution through a method value
// bound to a variable.
func TestCallGraphMethodValueEdge(t *testing.T) {
	_, g := loadGolden(t, "hotalloc", "pool")
	edges := edgesBetween(g, "indirect", "alloc")
	if len(edges) != 1 {
		t.Fatalf("indirect->alloc: got %d edges, want 1", len(edges))
	}
	if e := edges[0]; e.Kind != edgeClosure || e.Async {
		t.Errorf("indirect->alloc: kind=%v async=%v, want closure sync", e.Kind, e.Async)
	}
}

// TestCallGraphPoolThunkEdge pins the async thunk edge for a literal
// submitted to the configured pool package.
func TestCallGraphPoolThunkEdge(t *testing.T) {
	_, g := loadGolden(t, "hotalloc", "pool")
	edges := edgesBetween(g, "sweep", "function literal in sweep")
	if len(edges) != 1 {
		t.Fatalf("sweep->literal: got %d edges, want 1", len(edges))
	}
	if e := edges[0]; e.Kind != edgeThunk || !e.Async {
		t.Errorf("sweep->literal: kind=%v async=%v, want thunk async", e.Kind, e.Async)
	}
}

// TestCallGraphIfaceEdge pins interface-call resolution to the
// module-declared implementations.
func TestCallGraphIfaceEdge(t *testing.T) {
	_, g := loadGolden(t, "errdrop", "guarded", "pool")
	edges := edgesBetween(g, "mustCheck", "Post")
	if len(edges) == 0 {
		t.Fatal("mustCheck->Post: no edges resolved through the Platform interface")
	}
	sawIface := false
	for _, e := range edges {
		if e.Kind == edgeIface {
			sawIface = true
		}
	}
	if !sawIface {
		t.Error("mustCheck->Post: no iface-kind edge")
	}
}

// TestCallGraphByRef pins the "pkgpath.Type.Method" resolution grammar
// the config roots use.
func TestCallGraphByRef(t *testing.T) {
	prog, g := loadGolden(t, "hotalloc", "pool")
	ref := prog.ModulePath + "/internal/analysis/testdata/src/hotalloc.Scanner.Score"
	n := g.byRef[ref]
	if n == nil {
		keys := make([]string, 0, len(g.byRef))
		for k := range g.byRef {
			if strings.Contains(k, "Score") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		t.Fatalf("byRef[%q] = nil (candidates: %v)", ref, keys)
	}
	if n.Name != "Score" {
		t.Errorf("byRef resolved to %q, want Score", n.Name)
	}
}

// TestCallGraphReachableSamePkg pins the package-confined reachability
// hotalloc uses: the pool package is traversed through but its nodes
// are not part of the hot region.
func TestCallGraphReachableSamePkg(t *testing.T) {
	prog, g := loadGolden(t, "hotalloc", "pool")
	ref := prog.ModulePath + "/internal/analysis/testdata/src/hotalloc.Scanner.Score"
	root := g.byRef[ref]
	if root == nil {
		t.Fatal("root not resolved")
	}
	reached := g.reachableFrom([]*cgNode{root}, root.Pkg, nil)
	names := map[string]bool{}
	for n := range reached {
		names[n.Name] = true
	}
	for _, want := range []string{"Score", "solve", "leaf", "sweep", "indirect", "alloc", "function literal in sweep"} {
		if !names[want] {
			t.Errorf("hot region misses %q (got %v)", want, names)
		}
	}
	for _, not := range []string{"cold", "Reuse", "For"} {
		if names[not] {
			t.Errorf("hot region wrongly includes %q", not)
		}
	}
}
