package ctable

import (
	"fmt"

	"bayescrowd/internal/bitset"
	"bayescrowd/internal/dataset"
	"bayescrowd/internal/parallel"
	"bayescrowd/internal/skyline"
)

// CTable pairs every object of an incomplete dataset with its condition
// (Definition 3).
type CTable struct {
	// Conds[i] is φ(o_i).
	Conds []*Condition
	// DomSizes[i] is |D(o_i)|, kept for diagnostics and for the α-pruning
	// statistics reported by the benchmarks.
	DomSizes []int
	// PrunedByAlpha[i] marks objects whose condition was forced false by
	// the α threshold rather than by an empty clause.
	PrunedByAlpha []bool
	// Pruned counts the marks in PrunedByAlpha.
	Pruned int
}

// BuildOptions tunes Get-CTable.
type BuildOptions struct {
	// Alpha is the pruning threshold of Algorithm 2: an object whose
	// dominator set exceeds Alpha·|O| is deemed a non-answer and its
	// condition set to false. Alpha <= 0 disables pruning (every
	// candidate keeps its full condition).
	Alpha float64
	// Pairwise switches the dominator-set derivation to the pairwise
	// Baseline (Figure 2's comparator) instead of the sorted/bitwise
	// index. The resulting c-table is identical.
	Pairwise bool
	// PerObject switches off the signature-group partitioning (see
	// sortbuild.go) and derives every object's dominator set with its own
	// DomIndex intersection — the pre-partitioning behaviour, kept
	// selectable for equivalence tests and the build benchmark. The
	// resulting c-table is identical.
	PerObject bool
	// Workers bounds the goroutines the dominator derivation and CNF
	// construction fan out across: <= 0 means one per available CPU,
	// 1 keeps the build fully sequential. Groups (objects, under
	// PerObject or Pairwise) are independent and every result lands in
	// its own slot, so the c-table is identical at any setting.
	Workers int
}

// Build constructs the c-table for a skyline query over the incomplete
// dataset (Algorithm 2, Get-CTable).
func Build(d *dataset.Dataset, opt BuildOptions) *CTable {
	n := d.Len()
	ct := &CTable{Conds: make([]*Condition, n), DomSizes: make([]int, n), PrunedByAlpha: make([]bool, n)}

	var ix *DomIndex
	if !opt.Pairwise {
		ix = NewDomIndex(d)
	}
	limit := -1
	if opt.Alpha > 0 {
		limit = int(opt.Alpha * float64(n))
	}

	// Default path: partition objects into signature groups and derive one
	// dominator set per group (sortbuild.go) — near-linearithmic where the
	// per-object scan below is quadratic. The per-object and pairwise
	// paths remain selectable and produce identical tables.
	if !opt.Pairwise && !opt.PerObject {
		buildSorted(d, ix, opt, ct, limit)
		for _, pruned := range ct.PrunedByAlpha {
			if pruned {
				ct.Pruned++
			}
		}
		return ct
	}

	// Objects partition across the pool; each worker owns one dominator
	// bitset as scratch and writes only the slots of the objects it was
	// handed, so the table is identical at any worker count.
	workers := parallel.Workers(opt.Workers)
	doms := make([]*bitset.Set, workers)
	for w := range doms {
		doms[w] = bitset.New(n)
	}
	parallel.For(workers, n, func(w, o int) {
		dom := doms[w]
		if opt.Pairwise {
			DominatorsPairwise(d, o, dom)
		} else {
			ix.Dominators(d, o, dom)
		}
		size := dom.Count()
		ct.DomSizes[o] = size

		switch {
		case size == 0:
			ct.Conds[o] = True() // o is certainly a skyline object
		case limit >= 0 && size > limit:
			ct.Conds[o] = False() // deemed dominated (α pruning)
			ct.PrunedByAlpha[o] = true
		default:
			ct.Conds[o] = buildCondition(d, o, dom)
		}
	})
	for _, pruned := range ct.PrunedByAlpha {
		if pruned {
			ct.Pruned++
		}
	}
	return ct
}

// buildCondition emits the CNF condition of object o given its dominator
// set: one clause [p ⊀ o] per dominator p, holding one expression per
// attribute where o could still beat p. An empty clause (p dominates o on
// every attribute already, with no variable able to break it) forces the
// condition to false — this subsumes Algorithm 2's explicit
// complete-object dominance check (lines 8-9).
func buildCondition(d *dataset.Dataset, o int, dom *bitset.Set) *Condition {
	var clauses [][]Expr
	result := (*Condition)(nil)
	dom.ForEach(func(p int) bool {
		clause := buildClause(d, o, p)
		if clause == nil {
			result = False()
			return false
		}
		clauses = append(clauses, clause)
		return true
	})
	if result != nil {
		return result
	}
	return FromClauses(clauses)
}

// buildClause returns the disjuncts of [p ⊀ o]: for every attribute, the
// expression asserting that o strictly beats p there, when that is still
// possible. nil means the clause is empty (p certainly dominates o).
func buildClause(d *dataset.Dataset, o, p int) []Expr {
	return ClauseBetween(d.Attrs, o, d.Objects[o].Cells, p, d.Objects[p].Cells)
}

// ClauseBetween builds the clause [p ⊀ o] from raw cells: for every
// attribute, the expression asserting that object o (with cells oCells,
// variables numbered Var{o, j}) strictly beats its possible dominator p
// (pCells, Var{p, j}) there, when that is still possible. nil means the
// clause is empty — p certainly dominates o. It is the cell-level core of
// the batch build, exported for the incremental c-table (DynCTable),
// whose objects are numbered by stream identity rather than by dataset
// index.
//
// Statically unsatisfiable expressions — "x < 0" and "x > Levels-1" — are
// dropped at construction, so every emitted expression is a meaningful
// crowd task.
func ClauseBetween(attrs []dataset.Attribute, o int, oCells []dataset.Cell, p int, pCells []dataset.Cell) []Expr {
	var clause []Expr
	for j := range attrs {
		oc := oCells[j]
		pc := pCells[j]
		switch {
		case !oc.Missing && !pc.Missing:
			if oc.Value > pc.Value {
				// o already beats p here; p can never dominate o, the
				// clause is trivially satisfied, and by Definition 5 such
				// a p is not in D(o) at all. Reaching this square means
				// the dominator derivation is broken.
				panic(fmt.Sprintf("ctable: object %d in D(%d) despite losing attribute %d", p, o, j))
			}
			// o.[j] <= p.[j]: o cannot beat p here, no expression.
		case !oc.Missing && pc.Missing:
			// o beats p iff Var(p,j) < o.[j]; impossible when o.[j] = 0.
			if oc.Value > 0 {
				clause = append(clause, LTConst(Var{Obj: p, Attr: j}, oc.Value))
			}
		case oc.Missing && !pc.Missing:
			// o beats p iff Var(o,j) > p.[j]; impossible when p.[j] is max.
			if pc.Value < attrs[j].Levels-1 {
				clause = append(clause, GTConst(Var{Obj: o, Attr: j}, pc.Value))
			}
		default:
			clause = append(clause, GTVar(Var{Obj: o, Attr: j}, Var{Obj: p, Attr: j}))
		}
	}
	return clause
}

// ResultSet returns the indices of objects whose condition is decided
// true. During the crowdsourcing phase the framework widens this with
// objects whose satisfaction probability exceeds 0.5 (§7).
func (ct *CTable) ResultSet() []int {
	var out []int
	for i, c := range ct.Conds {
		if c.IsTrue() {
			out = append(out, i)
		}
	}
	return out
}

// Undecided returns the indices of objects whose condition is still open.
func (ct *CTable) Undecided() []int {
	var out []int
	for i, c := range ct.Conds {
		if _, decided := c.Decided(); !decided {
			out = append(out, i)
		}
	}
	return out
}

// SimplifyAll replaces every undecided condition with its simplification
// under the given knowledge, returning how many conditions became
// decided. The replaced conditions themselves are not written.
func (ct *CTable) SimplifyAll(k *Knowledge) int {
	settled := 0
	for i, c := range ct.Conds {
		if _, decided := c.Decided(); decided {
			continue
		}
		ct.Conds[i] = c.Simplified(k)
		if _, decided := ct.Conds[i].Decided(); decided {
			settled++
		}
	}
	return settled
}

// Verify checks the c-table against a complete ground-truth dataset: with
// every variable assigned its true value, each condition must evaluate to
// the truth of "o is a skyline object". Two deviations are by design and
// excused: objects pruned by the α threshold (conservatively false), and
// objects with a full-tie twin — the paper's clauses use strict
// inequalities (Table 3), so an object equalled on every attribute is
// treated as dominated even though Definition 1 says it is not. Verify
// returns the object indices where the c-table is otherwise wrong (empty
// for a sound table); integration tests assert emptiness.
func (ct *CTable) Verify(truth *dataset.Dataset) []int {
	sky := map[int]bool{}
	for _, i := range skyline.BNL(truth) {
		sky[i] = true
	}
	var bad []int
	for o, c := range ct.Conds {
		if ct.PrunedByAlpha != nil && ct.PrunedByAlpha[o] {
			continue
		}
		assign := map[Var]int{}
		for _, v := range c.Vars() {
			assign[v] = truth.Value(v.Obj, v.Attr)
		}
		got, decided := c.EvalAssign(assign)
		if !decided {
			bad = append(bad, o)
			continue
		}
		if got == sky[o] {
			continue
		}
		if !got && sky[o] && hasFullTie(truth, o) {
			continue
		}
		bad = append(bad, o)
	}
	return bad
}

// hasFullTie reports whether some other object equals o on every attribute
// in the ground truth.
func hasFullTie(truth *dataset.Dataset, o int) bool {
	oc := truth.Objects[o].Cells
	for p := range truth.Objects {
		if p == o {
			continue
		}
		tie := true
		for j := range oc {
			if truth.Objects[p].Cells[j].Value != oc[j].Value {
				tie = false
				break
			}
		}
		if tie {
			return true
		}
	}
	return false
}
