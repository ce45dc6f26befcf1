package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SingleWriterAnalyzer enforces the Evaluator/ComponentCache mutation
// contract (prob.go, cache.go): distributions are renormalised and dead
// cache entries dropped only in the single-writer gaps between parallel
// fan-outs, and only by the documented owners — internal/core's crowd
// phase and internal/prob itself. Any other package writing a guarded
// type's fields, storing into its maps, or calling its mutating methods
// is one refactor away from a data race the race detector only catches
// when the schedule cooperates, so the linter catches it always.
var SingleWriterAnalyzer = &Analyzer{
	Name: "singlewriter",
	Doc:  "flag mutation of prob.Evaluator/ComponentCache outside their documented owner packages",
	Run:  runSingleWriter,
}

func runSingleWriter(pass *Pass) {
	for _, owner := range pass.Cfg.SingleWriterOwners {
		if pass.Pkg.Path == owner {
			return // the owner may mutate
		}
	}
	info := pass.Pkg.Info
	owners := strings.Join(trimOwnerNames(pass.Cfg), ", ")
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					checkGuardedWrite(pass, info, lhs, owners)
				}
			case *ast.IncDecStmt:
				checkGuardedWrite(pass, info, stmt.X, owners)
			case *ast.CallExpr:
				checkMutatingCall(pass, info, stmt, owners)
			}
			return true
		})
	}
}

// checkGuardedWrite flags assignments whose target reaches through a
// guarded type: a field write (ev.Cache = …) or a store into a guarded
// type's map/slice field (ev.Dists[v] = …).
func checkGuardedWrite(pass *Pass, info *types.Info, lhs ast.Expr, owners string) {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if name, ok := pass.guardedNamed(typeOf(info, e.X)); ok {
				pass.Reportf(lhs.Pos(),
					"write to %s.%s outside its single-writer owners (%s): mutation must happen in the gaps between parallel fan-outs, in the owning package",
					name, e.Sel.Name, owners)
				return
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return
		}
	}
}

// checkMutatingCall flags calls to configured mutating methods of
// guarded types (e.g. ComponentCache.Drop) from non-owners.
func checkMutatingCall(pass *Pass, info *types.Info, call *ast.CallExpr, owners string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	named := recvNamed(fn)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	ref := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	for _, m := range pass.Cfg.MutatingMethods {
		if m == ref {
			pass.Reportf(call.Pos(),
				"call to mutating method %s.%s.%s outside its single-writer owners (%s): it belongs in the gaps between parallel fan-outs, in the owning package",
				named.Obj().Pkg().Name(), named.Obj().Name(), fn.Name(), owners)
			return
		}
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// trimOwnerNames shortens owner import paths for messages.
func trimOwnerNames(cfg *Config) []string {
	out := make([]string, len(cfg.SingleWriterOwners))
	for i, o := range cfg.SingleWriterOwners {
		out[i] = strings.TrimPrefix(o, cfg.ModulePath+"/")
	}
	return out
}
