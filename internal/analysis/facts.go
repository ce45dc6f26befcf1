package analysis

import (
	"go/ast"
	"go/types"
)

// facts is the interprocedural summary store shared by every analyzer
// of one run: the whole-module call graph, the lock-discipline facts
// (guard annotations, per-site held sets, the entry-held fixpoint), the
// errdrop wrapper closure, and the ledger-conservation reachability.
// It is computed once, before the per-package passes fan out, and is
// read-only afterwards — which is what makes the passes safe to run in
// parallel.
type facts struct {
	graph *callGraph

	// Lock discipline (lockcheck).
	guards       map[*types.Var]*guardInfo
	lockNames    map[*types.Var]string
	entryHeld    map[*cgNode]lockSet
	accesses     []guardedAccess
	acquisitions []acquisition
	lockDiags    []factDiag

	// wrappers maps a node whose returned error derives from a
	// must-check call (directly or through further wrappers) to the
	// display name of the underlying must-check method. errdrop uses it
	// to flag drops of wrapped errors.
	wrappers map[*cgNode]string

	// Ledger conservation (ledger analyzer).
	ledgerTypes   []*types.Named
	ledgerAllowed map[*cgNode]*cgNode // node -> root that admits it
	ledgerHelpers map[string]bool     // funcRef of package-private helpers

	// hotRoots are the resolved HotPathRoots nodes (hotalloc).
	hotRoots []*cgNode
}

// computeFacts builds every interprocedural summary for one program
// load. It must run before passes execute concurrently: it is the only
// phase that may trigger lazy package loading in prog.
func computeFacts(prog *Program, cfg *Config) *facts {
	prewarmConfigTypes(prog, cfg)
	f := &facts{
		graph:         buildCallGraph(prog, cfg),
		guards:        map[*types.Var]*guardInfo{},
		lockNames:     map[*types.Var]string{},
		entryHeld:     map[*cgNode]lockSet{},
		wrappers:      map[*cgNode]string{},
		ledgerAllowed: map[*cgNode]*cgNode{},
	}
	parseGuardAnnotations(prog, f)
	computeLockFacts(prog, f)
	computeWrappers(prog, cfg, f)
	computeLedgerFacts(prog, cfg, f)
	for _, ref := range cfg.HotPathRoots {
		if n := f.graph.byRef[ref]; n != nil {
			f.hotRoots = append(f.hotRoots, n)
		}
	}
	return f
}

// prewarmConfigTypes forces every config-referenced package through the
// lazy loader while the run is still single-threaded. Program.LookupType
// loads packages on demand and is not safe to call concurrently; after
// this warm-up the parallel passes only ever hit its cache.
func prewarmConfigTypes(prog *Program, cfg *Config) {
	warm := func(pkgPath, name string) {
		if pkgPath != "" {
			prog.LookupType(pkgPath, name)
		}
	}
	for _, ref := range cfg.GuardedTypes {
		warm(splitTypeRef(ref))
	}
	for _, ref := range cfg.LedgerTypes {
		warm(splitTypeRef(ref))
	}
	for _, ref := range cfg.MustCheck {
		pkgPath, typeName, _ := splitMethodRef(ref)
		warm(pkgPath, typeName)
	}
	for _, ref := range cfg.MutatingMethods {
		pkgPath, typeName, _ := splitMethodRef(ref)
		warm(pkgPath, typeName)
	}
}

// nodeSig returns the node's function signature.
func nodeSig(n *cgNode) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
		sig, _ := tv.Type.(*types.Signature)
		return sig
	}
	return nil
}

// nodeReturnsError reports whether the node's signature includes an
// error result.
func nodeReturnsError(n *cgNode) bool {
	sig := nodeSig(n)
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// computeWrappers runs the errdrop wrapper fixpoint: a node is a
// wrapper when its returned error derives from a must-check call or
// from another wrapper — through a direct `return post(...)`, a local
// error variable, a named error result with a naked return, or an
// fmt.Errorf %w re-wrap of such a variable. The set only grows, so the
// iteration terminates.
func computeWrappers(prog *Program, cfg *Config, f *facts) {
	for changed := true; changed; {
		changed = false
		for _, n := range f.graph.Nodes {
			if _, done := f.wrappers[n]; done {
				continue
			}
			if !nodeReturnsError(n) {
				continue
			}
			if name := forwardedMustCheck(prog, cfg, f, n); name != "" {
				f.wrappers[n] = name
				changed = true
			}
		}
	}
}

// forwardedMustCheck returns the display name of the must-check method
// whose error the node forwards, "" when the node's error does not
// derive from one.
func forwardedMustCheck(prog *Program, cfg *Config, f *facts, n *cgNode) string {
	info := n.Pkg.Info

	// interesting reports whether the call's error originates in a
	// must-check method (directly or via an already-known wrapper).
	interesting := func(call *ast.CallExpr) string {
		if must, name := mustCheckCallCfg(prog, cfg, info, call); must {
			return name
		}
		for _, e := range f.graph.bySite[call] {
			if e.Async {
				continue // the error surfaces on another goroutine
			}
			if name, ok := f.wrappers[e.Callee]; ok {
				return name
			}
		}
		return ""
	}

	// Pass 1 (flow-insensitive): local variables whose value derives
	// from an interesting call — `err := post(...)` and
	// `err = fmt.Errorf("...: %w", tainted)`.
	tainted := map[*types.Var]string{}
	taintLHS := func(lhs []ast.Expr, idx []int, name string) {
		for _, i := range idx {
			if i >= len(lhs) {
				continue
			}
			if id, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok && id.Name != "_" {
				if v, ok := varOf(info, id); ok {
					tainted[v] = name
				}
			}
		}
	}
	for again := true; again; { // two-level rewraps: iterate locally too
		again = false
		before := len(tainted)
		forEachOwnNode(n.Body, func(an ast.Node) {
			st, ok := an.(*ast.AssignStmt)
			if !ok || len(st.Rhs) != 1 {
				return
			}
			call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return
			}
			if name := interesting(call); name != "" {
				taintLHS(st.Lhs, resultErrorIndexes(info, call), name)
				return
			}
			if name := errorfRewrap(info, call, tainted); name != "" {
				taintLHS(st.Lhs, []int{0}, name)
			}
		})
		if len(tainted) != before {
			again = true
		}
	}

	// Pass 2: does any return hand a tainted value (or an interesting
	// call's result) back to the caller?
	sig := nodeSig(n)
	found := ""
	forEachOwnNode(n.Body, func(an ast.Node) {
		if found != "" {
			return
		}
		ret, ok := an.(*ast.ReturnStmt)
		if !ok {
			return
		}
		if len(ret.Results) == 0 {
			// Naked return: named error results carry their current
			// value out; a tainted named result makes this a wrapper.
			found = taintedNamedResult(info, sig, tainted)
			return
		}
		for _, r := range ret.Results {
			switch ex := ast.Unparen(r).(type) {
			case *ast.CallExpr:
				if name := interesting(ex); name != "" {
					found = name
				} else if name := errorfRewrap(info, ex, tainted); name != "" {
					found = name
				}
			case *ast.Ident:
				if v, ok := varOf(info, ex); ok {
					if name, ok := tainted[v]; ok {
						found = name
					}
				}
			}
		}
	})
	return found
}

// errorfRewrap reports the taint carried through fmt.Errorf when any
// argument is a tainted variable (the %w / %v re-wrap idiom).
func errorfRewrap(info *types.Info, call *ast.CallExpr, tainted map[*types.Var]string) string {
	fn := calleeFunc(info, call)
	if !isPkgFunc(fn, "fmt", "Errorf") {
		return ""
	}
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if v, ok := varOf(info, id); ok {
				if name, ok := tainted[v]; ok {
					return name
				}
			}
		}
	}
	return ""
}

// taintedNamedResult returns the taint of any named error result, for
// naked returns.
func taintedNamedResult(info *types.Info, sig *types.Signature, tainted map[*types.Var]string) string {
	if sig == nil {
		return ""
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		v := res.At(i)
		if v.Name() == "" || !types.Identical(v.Type(), errorType) {
			continue
		}
		for tv, name := range tainted {
			if tv.Name() == v.Name() && tv.Pos() == v.Pos() {
				return name
			}
		}
	}
	return ""
}

// varOf resolves an identifier to the variable it uses or defines.
func varOf(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v, true
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, true
	}
	return nil, false
}

// mustCheckCallCfg is mustCheckCall without a Pass (usable during the
// facts phase): does the call resolve to a configured must-check
// method, directly or through an implementing type?
func mustCheckCallCfg(prog *Program, cfg *Config, info *types.Info, call *ast.CallExpr) (bool, string) {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false, ""
	}
	return mustCheckFunc(prog, cfg, fn)
}

// mustCheckFunc reports whether fn is a configured must-check method —
// the configured declaration itself or a method of a type implementing
// the configured interface.
func mustCheckFunc(prog *Program, cfg *Config, fn *types.Func) (bool, string) {
	named := recvNamed(fn)
	var recv types.Type
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = sig.Recv().Type()
	}
	for _, ref := range cfg.MustCheck {
		pkgPath, typeName, method := splitMethodRef(ref)
		if fn.Name() != method {
			continue
		}
		display := typeName + "." + method
		if named != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName {
			return true, display
		}
		obj := prog.LookupType(pkgPath, typeName)
		if obj == nil {
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok || recv == nil {
			continue
		}
		if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
			return true, display
		}
	}
	return false, ""
}

// computeLedgerFacts resolves the configured ledger types and computes
// the call-tree closure of the configured accounting roots. A node in
// the closure may mutate ledger counters; everything else may not.
// Methods declared on the ledger types themselves (the accounting
// helpers) are additional roots: they exist to centralize mutation. The
// closure does not follow a call through a configured boundary
// interface method to its implementations.
func computeLedgerFacts(prog *Program, cfg *Config, f *facts) {
	for _, ref := range cfg.LedgerTypes {
		pkgPath, name := splitTypeRef(ref)
		if obj := prog.LookupType(pkgPath, name); obj != nil {
			if named, ok := obj.Type().(*types.Named); ok {
				f.ledgerTypes = append(f.ledgerTypes, named)
			}
		}
	}
	var roots []*cgNode
	for _, ref := range cfg.LedgerRoots {
		if n := f.graph.byRef[ref]; n != nil {
			roots = append(roots, n)
		}
	}
	for _, n := range f.graph.Nodes {
		if n.Fn != nil && f.isLedgerMethod(n.Fn) {
			roots = append(roots, n)
		}
	}
	boundary := map[string]bool{}
	for _, ref := range cfg.LedgerBoundaries {
		boundary[ref] = true
	}
	f.ledgerHelpers = map[string]bool{}
	for _, ref := range cfg.LedgerHelpers {
		f.ledgerHelpers[ref] = true
	}
	f.ledgerAllowed = f.graph.reachableFrom(roots, nil, func(e *cgEdge) bool {
		if e.Kind != edgeIface {
			return false
		}
		fn := calleeFunc(e.Caller.Pkg.Info, e.Site)
		return fn != nil && boundary[funcRef(fn)]
	})
}

// isLedgerMethod reports whether fn is declared on one of the ledger
// types.
func (f *facts) isLedgerMethod(fn *types.Func) bool {
	named := recvNamed(fn)
	return named != nil && f.isLedgerType(named)
}

// isLedgerType reports whether t (pointers stripped) is a configured
// ledger type.
func (f *facts) isLedgerType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	for _, lt := range f.ledgerTypes {
		if named.Obj() == lt.Obj() {
			return true
		}
	}
	return false
}

// ledgerNodeAllowed reports whether the node may mutate ledger state:
// it is in the accounting call-tree closure, or it is lexically nested
// in a node that is (a literal defined inside Tick runs as part of
// Tick even when the graph cannot see its invocation).
func (f *facts) ledgerNodeAllowed(n *cgNode) bool {
	for ; n != nil; n = n.Parent {
		if f.ledgerAllowed[n] != nil {
			return true
		}
	}
	return false
}
