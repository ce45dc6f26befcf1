package analysis

import (
	"go/ast"
	"go/types"
)

// LedgerAnalyzer enforces conservation of the crowdsourcing accounting
// state. The configured ledger type (crowd.Ledger) holds the counters
// behind the paper's budget guarantee — the laws Ledger.Conserved
// checks — and those only survive review if the set of mutation sites
// stays auditable. The analyzer therefore restricts every counter write
// and every mutating (pointer-receiver) method call on a ledger type,
// named directly or through an alias, to:
//
//   - the accounting helpers: methods declared on the ledger types
//     themselves (Ledger.Reserve, Charge, Refund), and their call trees;
//   - the configured accounting roots' call trees (the task board's
//     settlement methods Board.Post/Answer/Lose/Retire, and
//     CrowdEngine.Tick for the stream's answer tallies), resolved
//     interprocedurally over the call graph — including closures,
//     method values, and pool-submitted thunks, but stopping at calls
//     through the configured boundary interface methods
//     (crowd.Platform.Post, AsyncPlatform.PostAsync): a platform is the
//     marketplace, outside the caller's books, so an implementation such
//     as the service hub's is checked from its own roots instead;
//   - function literals lexically nested inside an allowed node (they
//     execute as part of it even when no call edge is visible).
//
// A new call site that bumps Posted from, say, a CLI command or a
// test helper is a finding: route it through the engine or a helper so
// the conservation check keeps meaning something.
//
// The configured package-private helpers (Ledger.Reserve, Charge and
// Refund) are stricter still: only code in the ledger's own package may
// call them, from any tree, so the task board stays the one place that
// reserves, charges and refunds.
var LedgerAnalyzer = &Analyzer{
	Name: "ledger",
	Doc:  "ledger counters (crowd.Ledger) may only be mutated inside accounting helpers and the configured accounting call trees",
	Run:  runLedger,
}

func runLedger(pass *Pass) {
	f := pass.Facts
	if f == nil || len(f.ledgerTypes) == 0 {
		return
	}
	info := pass.Pkg.Info
	for _, n := range f.graph.Nodes {
		if n.Pkg != pass.Pkg {
			continue
		}
		checkLedgerHelperCalls(pass, f, n)
		if f.ledgerNodeAllowed(n) {
			continue
		}
		forEachOwnNode(n.Body, func(an ast.Node) {
			switch st := an.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					checkLedgerWrite(pass, f, n, lhs)
				}
			case *ast.IncDecStmt:
				checkLedgerWrite(pass, f, n, st.X)
			case *ast.CallExpr:
				fn := calleeFunc(info, st)
				if fn == nil || !f.isLedgerMethod(fn) {
					return
				}
				recv := fn.Type().(*types.Signature).Recv() // a method, so never nil
				if _, ptr := recv.Type().(*types.Pointer); !ptr {
					return // value-receiver methods are reads
				}
				pass.Reportf(st.Pos(),
					"accounting helper %s called outside the accounting call trees (from %s): ledger mutations must flow through the configured roots so counter conservation stays auditable",
					calleeName(fn, st), n.rootName())
			}
		})
	}
}

// checkLedgerWrite flags an assignment target that stores into a field
// of a ledger-typed value. Index and slice chains are unwrapped so
// element stores into ledger-held maps count too.
func checkLedgerWrite(pass *Pass, f *facts, n *cgNode, lhs ast.Expr) {
	info := pass.Pkg.Info
	e := ast.Unparen(lhs)
	for {
		switch ex := e.(type) {
		case *ast.IndexExpr:
			e = ast.Unparen(ex.X)
			continue
		case *ast.StarExpr:
			e = ast.Unparen(ex.X)
			continue
		case *ast.SliceExpr:
			e = ast.Unparen(ex.X)
			continue
		}
		break
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := info.Types[sel.X]
	if !ok || !f.isLedgerType(tv.Type) {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"write to ledger counter %s outside the accounting call trees (in %s): mutate it through an accounting helper or a function reachable from the configured roots",
		namedOf(tv.Type).Obj().Name()+"."+sel.Sel.Name, n.rootName())
}

// checkLedgerHelperCalls flags calls in n to a package-private ledger
// helper declared outside n's package.
func checkLedgerHelperCalls(pass *Pass, f *facts, n *cgNode) {
	if len(f.ledgerHelpers) == 0 {
		return
	}
	forEachOwnNode(n.Body, func(an ast.Node) {
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return
		}
		fn := calleeFunc(pass.Pkg.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pass.Pkg.Path || !f.ledgerHelpers[funcRef(fn)] {
			return
		}
		pass.Reportf(call.Pos(),
			"accounting helper %s called outside package %s (from %s): only the ledger's own package reserves, charges and refunds",
			calleeName(fn, call), fn.Pkg().Name(), n.rootName())
	})
}
