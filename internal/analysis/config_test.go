package analysis

import (
	"go/types"
	"testing"
)

// TestRepoConfigResolves pins every RepoConfig reference to something
// that exists in the module. The analyzers skip a reference they cannot
// resolve, so a renamed or deleted type, method or package would
// otherwise switch its check off without a finding.
func TestRepoConfigResolves(t *testing.T) {
	root := moduleRoot(t)
	prog, err := Load(root, []string{"./..."}, false)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	cfg := RepoConfig(prog.ModulePath)
	g := buildCallGraph(prog, cfg)

	lookup := func(ref string) types.Object {
		pkgPath, name := splitTypeRef(ref)
		obj, ok := prog.LookupType(pkgPath, name).(*types.TypeName)
		if !ok {
			return nil
		}
		return obj
	}
	for _, refs := range [][]string{cfg.GuardedTypes, cfg.LedgerTypes} {
		for _, ref := range refs {
			if lookup(ref) == nil {
				t.Errorf("type %s does not resolve", ref)
			}
		}
	}
	for _, refs := range [][]string{cfg.LedgerRoots, cfg.HotPathRoots, cfg.MutatingMethods, cfg.LedgerHelpers} {
		for _, ref := range refs {
			if g.byRef[ref] == nil {
				t.Errorf("function %s is not a call-graph node", ref)
			}
		}
	}
	// Interface methods have no body and so no call-graph node; MustCheck
	// and LedgerBoundaries entries resolve through the named type's method
	// set instead.
	for _, ref := range append(append([]string(nil), cfg.MustCheck...), cfg.LedgerBoundaries...) {
		pkgPath, typeName, method := splitMethodRef(ref)
		obj := lookup(pkgPath + "." + typeName)
		if obj == nil {
			t.Errorf("type of %s does not resolve", ref)
			continue
		}
		typ := obj.Type()
		if !types.IsInterface(typ) {
			typ = types.NewPointer(typ)
		}
		if m, _, _ := types.LookupFieldOrMethod(typ, true, obj.Pkg(), method); m == nil {
			t.Errorf("method %s is not in its type's method set", ref)
		} else if _, ok := m.(*types.Func); !ok {
			t.Errorf("%s resolves to a field, not a method", ref)
		}
	}
	pkgs := append(append(append([]string{cfg.ModulePath, cfg.PoolPkg},
		cfg.DeterminismPkgs...), cfg.SingleWriterOwners...), cfg.DocPkgs...)
	for _, path := range pkgs {
		if prog.PackageByPath(path) == nil {
			t.Errorf("package %s is not in the module", path)
		}
	}
}
