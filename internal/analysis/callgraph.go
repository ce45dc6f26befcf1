package analysis

import (
	"go/ast"
	"go/types"
)

// This file builds bayeslint's whole-module static call graph — the
// substrate the interprocedural analyzers (lockcheck, ledger, and the
// summary-based errdrop/hotalloc upgrades) share. Nodes are function
// bodies: declared functions and methods plus every function literal.
// Edges are resolved with go/types only (no x/tools):
//
//   - static: direct calls of declared functions and methods;
//   - iface: calls through an interface method, resolved to every
//     module-declared type implementing the interface (types.Implements),
//     the way errdrop already resolves must-check implementations;
//   - closure: calls through a variable bound — flow-insensitively, per
//     package — to a function literal, a method value, or a declared
//     function, plus immediately-invoked literals;
//   - thunk: a function value passed as a call argument. The callee may
//     invoke it, so the thunk is treated as called by the submitter.
//     Thunks handed to the worker-pool package, spawned by go statements
//     or run by defer are marked async: they execute outside the
//     submitting frame, so locks held at the submission site are NOT
//     held on entry (the lockcheck fixpoint relies on this).
//
// The approximation is deliberately sound-for-this-repo rather than
// general: function values stored in struct fields or returned from
// factories are not tracked (the goroutine analyzer independently
// guarantees that the only asynchronous execution paths are the pool and
// go statements, so a synchronous-call assumption for other
// higher-order callees is safe).

// edgeKind classifies how a call-graph edge was resolved.
type edgeKind uint8

const (
	edgeStatic edgeKind = iota
	edgeIface
	edgeClosure
	edgeThunk
)

// String names the edge kind for diagnostics and tests.
func (k edgeKind) String() string {
	switch k {
	case edgeStatic:
		return "static"
	case edgeIface:
		return "iface"
	case edgeClosure:
		return "closure"
	case edgeThunk:
		return "thunk"
	}
	return "unknown"
}

// cgNode is one function body in the call graph.
type cgNode struct {
	// Fn is non-nil for declared functions and methods; Lit for
	// function literals. Exactly one is set.
	Fn  *types.Func
	Lit *ast.FuncLit
	// Body is the function's body (never nil; bodyless declarations get
	// no node).
	Body *ast.BlockStmt
	// Pkg is the package the body lives in.
	Pkg *Package
	// Parent is the lexically enclosing node for function literals, nil
	// for declarations.
	Parent *cgNode
	// Name is a display name: the declared name, or "function literal
	// in F" for literals.
	Name string

	Out []*cgEdge
	In  []*cgEdge
}

// cgEdge is one resolved call from Caller to Callee.
type cgEdge struct {
	Caller, Callee *cgNode
	// Site is the call expression the edge was resolved at (for thunk
	// edges, the call the function value was passed to).
	Site *ast.CallExpr
	Kind edgeKind
	// Async marks edges whose callee runs outside the submitting frame:
	// pool submissions, go statements, and deferred calls. Locks held at
	// Site are not held on the callee's entry.
	Async bool
	// held is the lock set the lockcheck walker observed at Site,
	// filled in by computeLockFacts.
	held lockSet
}

// callGraph indexes the nodes and edges of one program load.
type callGraph struct {
	Nodes  []*cgNode
	byFunc map[*types.Func]*cgNode
	byLit  map[*ast.FuncLit]*cgNode
	// bySite indexes a call expression's out-edges, for the walkers.
	bySite map[*ast.CallExpr][]*cgEdge
	// byRef resolves "pkgpath.Type.Method" / "pkgpath.Func" references
	// (the Config root grammar) to nodes.
	byRef map[string]*cgNode
}

// nodeFor returns the graph node of a declared function, nil when the
// function has no body in the loaded roots.
func (g *callGraph) nodeFor(fn *types.Func) *cgNode { return g.byFunc[fn] }

// buildCallGraph constructs the call graph over every root package.
func buildCallGraph(prog *Program, cfg *Config) *callGraph {
	g := &callGraph{
		byFunc: map[*types.Func]*cgNode{},
		byLit:  map[*ast.FuncLit]*cgNode{},
		bySite: map[*ast.CallExpr][]*cgEdge{},
		byRef:  map[string]*cgNode{},
	}
	b := &graphBuilder{g: g, cfg: cfg, bindings: map[*types.Var][]*cgNode{}, implCache: map[*types.Func][]*cgNode{}}

	// Pass 1: nodes for every declaration and literal, plus the
	// flow-insensitive variable→callable bindings.
	for _, pkg := range prog.Roots {
		b.collectNodes(pkg)
	}
	// Candidate types for interface resolution: every named type
	// declared in a root package.
	for _, pkg := range prog.Roots {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					if _, isIface := named.Underlying().(*types.Interface); !isIface {
						b.namedTypes = append(b.namedTypes, named)
					}
				}
			}
		}
	}
	// Pass 2: bindings (assignments of function values to variables).
	for _, pkg := range prog.Roots {
		b.collectBindings(pkg)
	}
	// Pass 3: edges.
	for _, n := range g.Nodes {
		b.addEdges(n)
	}
	return g
}

// graphBuilder carries the intermediate state of one graph build.
type graphBuilder struct {
	g   *callGraph
	cfg *Config
	// bindings maps a variable to the callables assigned to it anywhere
	// in its package (flow-insensitive).
	bindings map[*types.Var][]*cgNode
	// namedTypes are the interface-implementation candidates.
	namedTypes []*types.Named
	// implCache memoizes interface-method resolution.
	implCache map[*types.Func][]*cgNode
}

// collectNodes creates one node per function declaration and literal in
// the package, wiring literals to their lexical parents.
func (b *graphBuilder) collectNodes(pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &cgNode{Fn: fn, Body: fd.Body, Pkg: pkg, Name: fd.Name.Name}
			b.g.Nodes = append(b.g.Nodes, n)
			b.g.byFunc[fn] = n
			b.g.byRef[funcRef(fn)] = n
			b.collectLits(pkg, n, fd.Body)
		}
	}
}

// collectLits creates nodes for every function literal inside body,
// excluding literals nested in deeper literals (they get their own pass
// when their parent node is visited).
func (b *graphBuilder) collectLits(pkg *Package, parent *cgNode, body *ast.BlockStmt) {
	forEachOwnNode(body, func(n ast.Node) {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return
		}
		ln := &cgNode{Lit: lit, Body: lit.Body, Pkg: pkg, Parent: parent, Name: "function literal in " + parent.rootName()}
		b.g.Nodes = append(b.g.Nodes, ln)
		b.g.byLit[lit] = ln
		b.collectLits(pkg, ln, lit.Body)
	})
}

// rootName is the name of the outermost enclosing declaration.
func (n *cgNode) rootName() string {
	for n.Parent != nil {
		n = n.Parent
	}
	return n.Name
}

// forEachOwnNode visits every AST node inside body that belongs to the
// enclosing function itself, without descending into nested function
// literals (their contents belong to their own graph node).
func forEachOwnNode(body *ast.BlockStmt, f func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			f(lit)
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

// collectBindings records, per variable, the function literals, method
// values and declared functions assigned to it.
func (b *graphBuilder) collectBindings(pkg *Package) {
	info := pkg.Info
	record := func(lhs, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj, ok := info.Defs[id].(*types.Var)
		if !ok {
			obj, ok = info.Uses[id].(*types.Var)
		}
		if !ok || obj == nil {
			return
		}
		if n := b.callableNode(info, rhs); n != nil {
			b.bindings[obj] = append(b.bindings[obj], n)
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						record(st.Lhs[i], st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						record(st.Names[i], st.Values[i])
					}
				}
			}
			return true
		})
	}
}

// callableNode resolves an expression to the graph node it denotes when
// it is a function literal, a declared function, or a method value.
func (b *graphBuilder) callableNode(info *types.Info, e ast.Expr) *cgNode {
	switch ex := ast.Unparen(e).(type) {
	case *ast.FuncLit:
		return b.g.byLit[ex]
	case *ast.Ident:
		if fn, ok := info.Uses[ex].(*types.Func); ok {
			return b.g.byFunc[fn]
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[ex]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return b.g.byFunc[fn]
			}
			return nil
		}
		if fn, ok := info.Uses[ex.Sel].(*types.Func); ok {
			return b.g.byFunc[fn]
		}
	}
	return nil
}

// addEdges resolves every call inside one node's body.
func (b *graphBuilder) addEdges(n *cgNode) {
	info := n.Pkg.Info
	// Calls spawned by go statements or run by defer execute outside
	// the frame: their edges are async.
	async := map[*ast.CallExpr]bool{}
	forEachOwnNode(n.Body, func(an ast.Node) {
		switch st := an.(type) {
		case *ast.GoStmt:
			async[st.Call] = true
		case *ast.DeferStmt:
			async[st.Call] = true
		}
	})
	forEachOwnNode(n.Body, func(an ast.Node) {
		call, ok := an.(*ast.CallExpr)
		if !ok {
			return
		}
		b.resolveCall(n, info, call, async[call])
	})
}

// resolveCall adds the edges for one call expression.
func (b *graphBuilder) resolveCall(n *cgNode, info *types.Info, call *ast.CallExpr, async bool) {
	add := func(callee *cgNode, kind edgeKind, isAsync bool) {
		if callee == nil {
			return
		}
		e := &cgEdge{Caller: n, Callee: callee, Site: call, Kind: kind, Async: isAsync}
		n.Out = append(n.Out, e)
		callee.In = append(callee.In, e)
		b.g.bySite[call] = append(b.g.bySite[call], e)
	}

	fun := ast.Unparen(call.Fun)
	fn := calleeFunc(info, call)
	switch {
	case fn != nil:
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
				for _, impl := range b.impls(fn) {
					add(impl, edgeIface, async)
				}
				break
			}
		}
		add(b.g.byFunc[fn], edgeStatic, async)
	default:
		if lit, ok := fun.(*ast.FuncLit); ok {
			add(b.g.byLit[lit], edgeClosure, async)
			break
		}
		// Call through a function-typed variable: follow its bindings.
		if id, ok := fun.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				for _, bound := range b.bindings[v] {
					add(bound, edgeClosure, async)
				}
			}
		}
	}

	// Function values passed as arguments: the callee may invoke them.
	// Pool submissions run on worker goroutines, so they are async like
	// go statements; other higher-order callees are assumed synchronous
	// (the goroutine analyzer bans every other async path).
	thunkAsync := async || b.isPoolFunc(fn)
	for _, arg := range call.Args {
		if callee := b.callableNode(info, arg); callee != nil {
			add(callee, edgeThunk, thunkAsync)
			continue
		}
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				for _, bound := range b.bindings[v] {
					add(bound, edgeThunk, thunkAsync)
				}
			}
		}
	}
}

// isPoolFunc reports whether fn belongs to the configured worker-pool
// package.
func (b *graphBuilder) isPoolFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == b.cfg.PoolPkg
}

// impls resolves an interface method to the matching method of every
// module-declared type implementing the interface.
func (b *graphBuilder) impls(fn *types.Func) []*cgNode {
	if cached, ok := b.implCache[fn]; ok {
		return cached
	}
	var out []*cgNode
	sig := fn.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	if iface != nil {
		for _, named := range b.namedTypes {
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				if node := b.g.byFunc[m]; node != nil {
					out = append(out, node)
				}
			}
		}
	}
	b.implCache[fn] = out
	return out
}

// reachableFrom computes the nodes reachable from the given roots over
// every edge kind. When samePkg is non-nil, traversal is confined to
// nodes of that package (hotalloc's per-package hot regions); when stop
// is non-nil, it does not follow the edges stop reports (the ledger's
// boundary calls). The returned map carries, per reached node, the root
// that first reached it (for diagnostics).
func (g *callGraph) reachableFrom(roots []*cgNode, samePkg *Package, stop func(*cgEdge) bool) map[*cgNode]*cgNode {
	reached := map[*cgNode]*cgNode{}
	var queue []*cgNode
	for _, r := range roots {
		if samePkg != nil && r.Pkg != samePkg {
			continue
		}
		if reached[r] == nil {
			reached[r] = r
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			c := e.Callee
			if reached[c] != nil || (samePkg != nil && c.Pkg != samePkg) || (stop != nil && stop(e)) {
				continue
			}
			reached[c] = reached[n]
			queue = append(queue, c)
		}
	}
	return reached
}
