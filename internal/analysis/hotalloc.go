package analysis

import (
	"go/ast"
	"go/types"
)

// HotAllocAnalyzer guards the Pr(φ) kernel's allocation discipline: the
// compiled clause-state engine got its speedup over the seed by hoisting
// every per-call map into solver scratch reused across evaluations, and
// a map allocated inside the hot loop quietly gives that back (interning
// maps alone were worth tens of percent). The analyzer flags every
// `make(map...)` and map composite literal in functions reachable from
// the configured hot-path roots over the interprocedural call graph —
// including closures defined in hot functions, method values handed
// around, and thunks submitted to the worker pool (a map allocated
// inside a parallel.For body allocates once per index, the hottest
// placement of all). Reachability stays confined to the root's own
// package: the hot loop is self-contained by design, and cross-package
// callees (obs counters, stdlib) own their allocation policy.
//
// Deliberate allocations stay, visibly: the marginal-sweep result sets
// (the caller owns them), the evaluator's planned-sweep set, and per-scan
// — not per-probe — setup each carry a //lint:ignore hotalloc with the
// reason, so every exception is a reviewed decision rather than drift.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag per-call map allocations in functions reachable from the Pr(phi) hot-loop roots",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	f := pass.Facts
	if f == nil || len(f.hotRoots) == 0 {
		return
	}
	info := pass.Pkg.Info

	reached := f.graph.reachableFrom(f.hotRoots, pass.Pkg, nil)
	for fn, root := range reached {
		if fn.Pkg != pass.Pkg {
			continue
		}
		forEachOwnNode(fn.Body, func(n ast.Node) {
			switch expr := n.(type) {
			case *ast.CallExpr:
				if id, ok := ast.Unparen(expr.Fun).(*ast.Ident); ok && id.Name == "make" &&
					info.Uses[id] == types.Universe.Lookup("make") && isMapType(info.TypeOf(expr)) {
					pass.Reportf(expr.Pos(),
						"per-call map allocation in %s, reachable from hot-loop root %s: hoist it into solver scratch reused across evaluations",
						fn.Name, root.Name)
				}
			case *ast.CompositeLit:
				if isMapType(info.TypeOf(expr)) {
					pass.Reportf(expr.Pos(),
						"per-call map literal in %s, reachable from hot-loop root %s: hoist it into solver scratch reused across evaluations",
						fn.Name, root.Name)
				}
			}
		})
	}
}

// funcRef renders a function the way Config.HotPathRoots names it:
// "pkgpath.TypeName.Method" for methods (pointer receivers stripped),
// "pkgpath.FuncName" for package-level functions.
func funcRef(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if named := recvNamed(fn); named != nil {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
