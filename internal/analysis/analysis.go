// Package analysis is bayeslint's engine: a from-scratch, stdlib-only
// (go/parser, go/ast, go/types, go/importer — no golang.org/x/tools)
// multi-analyzer lint driver that mechanically enforces the repo's
// load-bearing contracts:
//
//   - determinism: the solver/crowd packages must produce bit-identical
//     results across runs and worker counts, so wall-clock reads, global
//     (OS-seeded) math/rand, time-derived seeds, and map-iteration-order
//     leaks into outputs are forbidden there (PR 1's worker-pool
//     guarantee, PR 3's reproducible-faults guarantee).
//   - singlewriter: prob.Evaluator and prob.ComponentCache mutation is
//     single-writer-only; only the documented owners may write their
//     fields or call their mutating methods (PR 2's cache contract).
//   - errdrop: discarded error results, with crowd.Platform.Post and
//     ctable.Knowledge.Absorb as must-check even when a partial result
//     is also returned (PR 3's fallible-platform contract).
//   - goroutine: goroutine hygiene — wg.Add inside the spawned
//     goroutine, shared solver scratch captured by closures submitted to
//     internal/parallel, and naked go statements outside the pool.
//   - floatcmp: ==/!= on probability/entropy float64s outside approved
//     epsilon helpers and exact 0/1 sentinel tests.
//   - doccomment: exported declarations without a doc comment in the
//     configured packages — the repo's exports are its paper-to-code
//     map, so each must state the contract it exports.
//   - lockcheck: fields annotated `// guarded by <mu>` may only be
//     accessed where the interprocedural summary proves the mutex held;
//     inconsistent lock-acquisition order is a finding too.
//   - lockcopy: copies of mutex-containing values (by-value receivers,
//     parameters, dereference copies, by-value ranges) fork the lock
//     state and are flagged.
//   - ledger: the crowd accounting counters (crowd.Ledger) may only be
//     mutated inside the accounting helpers and the configured
//     accounting call trees.
//
// Since PR 9 the driver computes an interprocedural facts layer before
// the per-package passes run: a whole-module static call graph (static,
// interface, closure, method-value and pool-thunk edges, resolved with
// go/types only), per-function summaries (locks held at each call site,
// errors forwarded, ledger reachability) and fixpoint propagation over
// the graph. lockcheck, ledger, and the interprocedural errdrop and
// hotalloc tiers all read from that shared store; see callgraph.go and
// facts.go.
//
// Diagnostics are suppressed per site with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. The gate is exact
// in both directions: an unused or malformed directive is itself a
// diagnostic, so the clean-repo check cannot be tuned down silently.
package analysis

import (
	"fmt"
	"go/token"
	"strings"
)

// Analyzer is one named invariant check run over every loaded package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description for `bayeslint -list`.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries everything one analyzer needs to inspect one package.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	Cfg      *Config

	// Facts is the interprocedural summary store (call graph, lock
	// fixpoints, error-wrapper closure, ledger reachability), computed
	// once per run before passes execute and read-only afterwards.
	Facts *facts

	// restricted is the effective determinism scope: the configured
	// deterministic packages plus every module package they transitively
	// import (an import makes its callees reachable from the restricted
	// code). Computed once per run by the driver.
	restricted map[string]bool

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, addressed by file:line:col.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic the way the CLI prints it.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzers returns the full analyzer suite in presentation order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		SingleWriterAnalyzer,
		ErrDropAnalyzer,
		GoroutineAnalyzer,
		FloatCmpAnalyzer,
		DocCommentAnalyzer,
		HotAllocAnalyzer,
		LockCheckAnalyzer,
		LockCopyAnalyzer,
		LedgerAnalyzer,
	}
}

// Select filters the suite down to the comma-separated analyzer names
// in sel ("" keeps everything). Unknown names error so a typo in
// `-analyzer` cannot silently run nothing.
func Select(all []*Analyzer, sel string) ([]*Analyzer, error) {
	if sel == "" {
		return all, nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(sel, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run with -list to see the suite)", name)
		}
		out = append(out, a)
	}
	return out, nil
}
