package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// LockCheckAnalyzer enforces annotated mutex discipline. A struct field
// carrying a
//
//	// guarded by <mu>
//
// comment (trailing the field or in its doc block, where <mu> names a
// sibling sync.Mutex or sync.RWMutex field) may only be read or written
// on paths where the analysis proves the mutex is held. The proof is
// interprocedural: a per-function walk tracks the locks held through
// each statement (Lock/Unlock pairs, defer Unlock, branch
// intersection), and a fixpoint over the call graph computes the locks
// held on entry of every function as the intersection over its call
// sites — so a helper only ever called with a mutex held needs no
// annotation of its own, while a
// new lock-free call site of that helper immediately turns every
// guarded access inside it into a finding. Thunks handed to the worker
// pool, go statements and deferred calls enter with no locks held: a
// guarded access inside a pool closure is flagged even when the
// submitter held the lock, because the worker goroutine does not.
//
// The same walk also records the order in which locks nest; a pair of
// mutexes acquired in both orders anywhere in the module is reported at
// both acquisition sites (inconsistent order is a deadlock one
// schedule away). Writes under a read lock are findings, reads under
// either mode pass.
var LockCheckAnalyzer = &Analyzer{
	Name: "lockcheck",
	Doc:  "prove '// guarded by <mu>' fields are only accessed with the mutex held; flag lock-order inversions",
	Run:  runLockCheck,
}

func runLockCheck(pass *Pass) {
	f := pass.Facts
	if f == nil {
		return
	}
	for _, d := range f.lockDiags {
		if d.pkg == pass.Pkg {
			pass.Reportf(d.pos, "%s", d.msg)
		}
	}
	for _, acc := range f.accesses {
		if acc.pkg != pass.Pkg {
			continue
		}
		g := f.guards[acc.field]
		eff := acc.held.union(f.entryHeldOf(acc.node))
		mode, held := eff[g.mu]
		switch {
		case !held:
			pass.Reportf(acc.pos,
				"%s %s (guarded by %s) without holding the mutex: no path into %s proves it locked — lock it, or route the access through a helper whose call sites all hold it",
				acc.verb(), g.dispField, g.dispMu, acc.node.rootName())
		case acc.write && mode&lockWrite == 0:
			pass.Reportf(acc.pos,
				"write to %s (guarded by %s) under a read lock: RLock only licenses reads — take the write lock",
				acc.dispVerbTarget(g), g.dispMu)
		}
	}
}

// lockMode distinguishes read-locked from write-locked mutexes.
type lockMode uint8

const (
	lockRead  lockMode = 1 << iota // RLock held
	lockWrite                      // Lock held (implies read license)
)

// lockSet maps a mutex field to the strongest mode proved held. Keys
// are the field objects themselves, so two instances of the same struct
// share one key: the discipline is per-field, not per-instance (the
// standard annotation-checker approximation).
type lockSet map[*types.Var]lockMode

func (s lockSet) clone() lockSet {
	out := make(lockSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s lockSet) union(t lockSet) lockSet {
	if len(t) == 0 {
		return s
	}
	out := s.clone()
	for k, v := range t {
		out[k] |= v
	}
	return out
}

// intersect keeps the keys present in both sets with the weaker mode.
func (s lockSet) intersect(t lockSet) lockSet {
	out := lockSet{}
	for k, v := range s {
		if w, ok := t[k]; ok {
			out[k] = v & w
		}
	}
	return out
}

func (s lockSet) equal(t lockSet) bool {
	if len(s) != len(t) {
		return false
	}
	for k, v := range s {
		if t[k] != v {
			return false
		}
	}
	return true
}

// guardInfo records one annotated field's contract.
type guardInfo struct {
	mu        *types.Var // the sibling mutex field
	dispField string     // "Type.field" for messages
	dispMu    string     // "Type.mu" for messages
}

// guardedAccess is one read or write of an annotated field, with the
// locks the intra-function walk proved held locally at the site.
type guardedAccess struct {
	pos   token.Pos
	pkg   *Package
	node  *cgNode
	field *types.Var
	write bool
	held  lockSet
}

func (a *guardedAccess) verb() string {
	if a.write {
		return "write to"
	}
	return "read of"
}

func (a *guardedAccess) dispVerbTarget(g *guardInfo) string { return g.dispField }

// factDiag is a pre-positioned finding computed during the facts phase,
// reported by the owning package's pass.
type factDiag struct {
	pkg *Package
	pos token.Pos
	msg string
}

// guardedByRe matches the annotation inside a field comment.
var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// parseGuardAnnotations collects every "// guarded by <mu>" field
// annotation across the root packages, validating that <mu> names a
// sibling mutex field. Malformed annotations become findings — a typo'd
// guard must not silently disable the check.
func parseGuardAnnotations(prog *Program, f *facts) {
	for _, pkg := range prog.Roots {
		info := pkg.Info
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					parseStructGuards(pkg, info, ts.Name.Name, st, f)
				}
			}
		}
	}
}

// parseStructGuards processes one struct declaration's annotations.
func parseStructGuards(pkg *Package, info *types.Info, typeName string, st *ast.StructType, f *facts) {
	// Index the sibling fields by name for guard resolution.
	fieldByName := map[string]*ast.Field{}
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			fieldByName[name.Name] = fld
		}
	}
	for _, fld := range st.Fields.List {
		text := ""
		if fld.Doc != nil {
			text += fld.Doc.Text()
		}
		if fld.Comment != nil {
			text += fld.Comment.Text()
		}
		m := guardedByRe.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		muName := m[1]
		muField, ok := fieldByName[muName]
		if !ok {
			f.lockDiags = append(f.lockDiags, factDiag{pkg: pkg, pos: fld.Pos(),
				msg: fmt.Sprintf("guarded-by annotation names %q, which is not a field of %s", muName, typeName)})
			continue
		}
		var muVar *types.Var
		for _, name := range muField.Names {
			if name.Name == muName {
				muVar, _ = info.Defs[name].(*types.Var)
			}
		}
		if muVar == nil || !isMutexVar(muVar) {
			f.lockDiags = append(f.lockDiags, factDiag{pkg: pkg, pos: fld.Pos(),
				msg: fmt.Sprintf("guarded-by annotation names %s.%s, which is not a sync.Mutex or sync.RWMutex", typeName, muName)})
			continue
		}
		f.lockNames[muVar] = typeName + "." + muName
		for _, name := range fld.Names {
			if fv, ok := info.Defs[name].(*types.Var); ok {
				f.guards[fv] = &guardInfo{
					mu:        muVar,
					dispField: typeName + "." + name.Name,
					dispMu:    typeName + "." + muName,
				}
			}
		}
		if len(fld.Names) == 0 {
			f.lockDiags = append(f.lockDiags, factDiag{pkg: pkg, pos: fld.Pos(),
				msg: fmt.Sprintf("guarded-by annotation on an embedded field of %s is not supported: name the field", typeName)})
		}
	}
}

// isMutexVar reports whether the field's type is sync.Mutex or
// sync.RWMutex (directly or behind one pointer).
func isMutexVar(v *types.Var) bool {
	return mutexKind(v.Type()) != ""
}

// mutexKind returns "Mutex" / "RWMutex" for sync mutex types (pointers
// stripped), "" otherwise.
func mutexKind(t types.Type) string {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return ""
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
		return named.Obj().Name()
	}
	return ""
}

// lockWalker tracks, statement by statement, which mutex fields are
// held inside one function body. It records three kinds of facts: the
// held set at every call site (feeding the entry-held fixpoint), every
// guarded-field access with its local held set, and every nested
// acquisition (feeding the lock-order check).
type lockWalker struct {
	f    *facts
	pkg  *Package
	node *cgNode
	held lockSet
	// order is the acquisition stack mirroring held's keys in the order
	// they were taken on the walked path; it keeps the order-inversion
	// pairs deterministic (held is a map, whose iteration order is not).
	order []*types.Var
}

// computeLockFacts walks every node, then runs the entry-held fixpoint
// and the lock-order inversion scan.
func computeLockFacts(prog *Program, f *facts) {
	for _, n := range f.graph.Nodes {
		w := &lockWalker{f: f, pkg: n.Pkg, node: n, held: lockSet{}}
		w.stmts(n.Body.List)
	}
	fixpointEntryHeld(f)
	reportOrderInversions(prog, f)
}

// fixpointEntryHeld computes, per node, the locks held at every call
// site of the node — the intersection over all in-edges of the locks
// held at the site plus the caller's own entry set. Async edges
// contribute the empty set (the callee runs on another goroutine or
// after unwind). Nodes with no in-edges are entry points and start
// empty; everything else starts at "unknown" (nil, the top element) and
// only shrinks, so the iteration terminates.
func fixpointEntryHeld(f *facts) {
	for _, n := range f.graph.Nodes {
		if len(n.In) == 0 {
			f.entryHeld[n] = lockSet{}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range f.graph.Nodes {
			if len(n.In) == 0 {
				continue
			}
			var acc lockSet // nil = top (no known in-edge yet)
			for _, e := range n.In {
				var eff lockSet
				if e.Async {
					eff = lockSet{}
				} else {
					callerEntry, ok := f.entryHeld[e.Caller]
					if !ok {
						continue // caller still unknown: contributes top
					}
					eff = e.held.union(callerEntry)
				}
				if acc == nil {
					acc = eff.clone()
				} else {
					acc = acc.intersect(eff)
				}
			}
			if acc == nil {
				continue
			}
			if cur, ok := f.entryHeld[n]; !ok || !cur.equal(acc) {
				f.entryHeld[n] = acc
				changed = true
			}
		}
	}
}

// entryHeldOf returns the locks proved held on entry to the node; nodes
// the fixpoint never reached (no known callers) are treated as entered
// lock-free, the conservative direction.
func (f *facts) entryHeldOf(n *cgNode) lockSet {
	if s, ok := f.entryHeld[n]; ok {
		return s
	}
	return nil
}

// reportOrderInversions scans the recorded nested acquisitions for
// pairs taken in both orders. Acquisitions are iterated in recording
// order (node order × statement order), which keeps the diagnostics
// deterministic without a sort.
func reportOrderInversions(prog *Program, f *facts) {
	type pair struct{ outer, inner *types.Var }
	seen := map[pair]bool{}
	for _, acq := range f.acquisitions {
		seen[pair{acq.outer, acq.inner}] = true
	}
	for _, acq := range f.acquisitions {
		if acq.outer == acq.inner || !seen[pair{acq.inner, acq.outer}] {
			continue
		}
		f.lockDiags = append(f.lockDiags, factDiag{
			pkg: f.pkgOfPos(prog, acq.pos),
			pos: acq.pos,
			msg: fmt.Sprintf("lock %s acquired while holding %s, but the opposite order also occurs: inconsistent acquisition order deadlocks the first schedule that interleaves them",
				f.lockName(acq.inner), f.lockName(acq.outer)),
		})
	}
}

// acquisition records one lock taken while another was held.
type acquisition struct {
	outer, inner *types.Var
	pos          token.Pos
}

// lockName renders a mutex field for messages.
func (f *facts) lockName(v *types.Var) string {
	if n, ok := f.lockNames[v]; ok {
		return n
	}
	return v.Name()
}

// pkgOfPos finds the root package owning a position.
func (f *facts) pkgOfPos(prog *Program, pos token.Pos) *Package {
	file := prog.Fset.Position(pos).Filename
	for _, pkg := range prog.Roots {
		for _, astf := range pkg.Files {
			if prog.Fset.Position(astf.Pos()).Filename == file {
				return pkg
			}
		}
	}
	return nil
}

// stmts walks a statement list sequentially; the returned flag reports
// that control cannot fall out of the list (a return/branch on every
// path).
func (w *lockWalker) stmts(list []ast.Stmt) bool {
	diverges := false
	for _, s := range list {
		if w.stmt(s) {
			diverges = true
		}
	}
	return diverges
}

// stmt walks one statement, updating the held set.
func (w *lockWalker) stmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case nil:
		return false
	case *ast.ExprStmt:
		w.expr(st.X, false)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			w.expr(r, false)
		}
		for _, l := range st.Lhs {
			w.expr(l, true)
		}
	case *ast.IncDecStmt:
		w.expr(st.X, true)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, false)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r, false)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.stmts(st.List)
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.expr(st.Cond, false)
		entry := w.held.clone()
		thenDiv := w.stmt(st.Body)
		thenHeld := w.held
		w.held = entry.clone()
		elseDiv := false
		elseHeld := entry
		if st.Else != nil {
			elseDiv = w.stmt(st.Else)
			elseHeld = w.held
		}
		switch {
		case thenDiv && elseDiv:
			w.held = entry
			return st.Else != nil
		case thenDiv:
			w.held = elseHeld
		case elseDiv:
			w.held = thenHeld
		default:
			w.held = thenHeld.intersect(elseHeld)
		}
	case *ast.ForStmt:
		w.stmt(st.Init)
		w.expr(st.Cond, false)
		entry := w.held.clone()
		w.stmt(st.Body)
		w.stmt(st.Post)
		w.held = entry // the body may run zero times
	case *ast.RangeStmt:
		w.expr(st.X, false)
		entry := w.held.clone()
		w.stmt(st.Body)
		w.held = entry
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		w.expr(st.Tag, false)
		w.walkClauses(st.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		w.walkClauses(st.Body)
	case *ast.SelectStmt:
		w.walkClauses(st.Body)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to every return: no-op
		// on the held set. Any other deferred call runs after unwind
		// (its edges are async); its arguments are evaluated now.
		if w.lockOp(st.Call, true) {
			return false
		}
		for _, a := range st.Call.Args {
			w.expr(a, false)
		}
		w.recordCall(st.Call)
	case *ast.GoStmt:
		for _, a := range st.Call.Args {
			w.expr(a, false)
		}
		w.recordCall(st.Call)
	case *ast.LabeledStmt:
		return w.stmt(st.Stmt)
	case *ast.SendStmt:
		w.expr(st.Chan, false)
		w.expr(st.Value, false)
	}
	return false
}

// walkClauses runs each case/comm clause from the entry held set and
// restores it afterwards (conservative merge: a clause's acquisitions
// do not survive the switch).
func (w *lockWalker) walkClauses(body *ast.BlockStmt) {
	entry := w.held.clone()
	for _, c := range body.List {
		w.held = entry.clone()
		switch cl := c.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				w.expr(e, false)
			}
			w.stmts(cl.Body)
		case *ast.CommClause:
			w.stmt(cl.Comm)
			w.stmts(cl.Body)
		}
	}
	w.held = entry
}

// expr walks one expression. write marks the outermost position of an
// assignment target: a selector there (or behind index chains) is a
// write access to the field.
func (w *lockWalker) expr(e ast.Expr, write bool) {
	switch ex := e.(type) {
	case nil:
		return
	case *ast.ParenExpr:
		w.expr(ex.X, write)
	case *ast.Ident:
		return
	case *ast.SelectorExpr:
		w.checkAccess(ex, write)
		w.expr(ex.X, false)
	case *ast.IndexExpr:
		w.expr(ex.X, write) // storing into a guarded map/slice mutates the field
		w.expr(ex.Index, false)
	case *ast.IndexListExpr:
		w.expr(ex.X, write)
		for _, i := range ex.Indices {
			w.expr(i, false)
		}
	case *ast.StarExpr:
		w.expr(ex.X, false)
	case *ast.UnaryExpr:
		w.expr(ex.X, false)
	case *ast.BinaryExpr:
		w.expr(ex.X, false)
		w.expr(ex.Y, false)
	case *ast.CallExpr:
		if w.lockOp(ex, false) {
			return
		}
		w.expr(ex.Fun, false)
		for _, a := range ex.Args {
			w.expr(a, false)
		}
		w.recordCall(ex)
	case *ast.FuncLit:
		return // its body is a separate node; entry locks come from the fixpoint
	case *ast.CompositeLit:
		for _, el := range ex.Elts {
			w.expr(el, false)
		}
	case *ast.KeyValueExpr:
		w.expr(ex.Value, false)
	case *ast.TypeAssertExpr:
		w.expr(ex.X, false)
	case *ast.SliceExpr:
		w.expr(ex.X, write)
		w.expr(ex.Low, false)
		w.expr(ex.High, false)
		w.expr(ex.Max, false)
	case *ast.Ellipsis:
		w.expr(ex.Elt, false)
	}
}

// recordCall snapshots the held set onto the call's resolved edges for
// the entry-held fixpoint.
func (w *lockWalker) recordCall(call *ast.CallExpr) {
	for _, e := range w.f.graph.bySite[call] {
		e.held = w.held.clone()
	}
}

// lockOp recognises mutex-field Lock/RLock/Unlock/RUnlock calls and
// applies their effect. deferred Unlocks leave the set untouched (held
// to function end). Returns true when the call was a lock operation.
func (w *lockWalker) lockOp(call *ast.CallExpr, deferred bool) bool {
	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil || mutexKind(recvType(fn)) == "" {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	muField := w.fieldVar(ast.Unparen(sel.X))
	if muField == nil {
		return false
	}
	if _, named := w.f.lockNames[muField]; !named {
		// Remember a display name even for mutexes nobody annotated
		// against, so order-inversion messages can name them.
		disp := muField.Name()
		if inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr); ok {
			if tv, ok := w.pkg.Info.Types[inner.X]; ok {
				if nm := namedOf(tv.Type); nm != nil {
					disp = nm.Obj().Name() + "." + muField.Name()
				}
			}
		}
		w.f.lockNames[muField] = disp
	}
	switch fn.Name() {
	case "Lock":
		if !deferred {
			w.acquire(muField, call.Pos())
			w.held[muField] = lockRead | lockWrite
		}
	case "RLock":
		if !deferred {
			w.acquire(muField, call.Pos())
			w.held[muField] |= lockRead
		}
	case "Unlock", "RUnlock":
		if !deferred {
			delete(w.held, muField)
			for i, v := range w.order {
				if v == muField {
					w.order = append(w.order[:i], w.order[i+1:]...)
					break
				}
			}
		}
	default:
		return false // TryLock etc.: effect unknown, treated as a plain call
	}
	return true
}

// acquire records the order pairs for taking mu while others are held,
// walking the deterministic acquisition stack rather than the held map.
func (w *lockWalker) acquire(mu *types.Var, pos token.Pos) {
	for _, held := range w.order {
		if _, still := w.held[held]; still {
			w.f.acquisitions = append(w.f.acquisitions, acquisition{outer: held, inner: mu, pos: pos})
		}
	}
	for _, v := range w.order {
		if v == mu {
			return
		}
	}
	w.order = append(w.order, mu)
}

// fieldVar resolves an expression of the form base.field to the field
// object, nil for anything else (local mutex variables cannot guard
// struct fields, so only field mutexes carry lock keys).
func (w *lockWalker) fieldVar(e ast.Expr) *types.Var {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := w.pkg.Info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	if v, ok := w.pkg.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}

// checkAccess records guarded-field reads and writes with the local
// held set.
func (w *lockWalker) checkAccess(sel *ast.SelectorExpr, write bool) {
	v := w.fieldVar(sel)
	if v == nil {
		return
	}
	if _, guarded := w.f.guards[v]; !guarded {
		return
	}
	w.f.accesses = append(w.f.accesses, guardedAccess{
		pos:   sel.Sel.Pos(),
		pkg:   w.pkg,
		node:  w.node,
		field: v,
		write: write,
		held:  w.held.clone(),
	})
}

// recvType returns a method's receiver type, nil for functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}
