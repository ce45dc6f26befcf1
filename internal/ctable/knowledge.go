package ctable

import (
	"fmt"

	"bayescrowd/internal/dataset"
)

// Knowledge accumulates what crowd answers have revealed about the
// variables: an interval of still-possible values per variable (answers
// against constants only ever shrink an interval) and the known relation
// between variable pairs that were compared directly.
//
// It is the machinery behind the paper's observation (§7.3) that
// BayesCrowd "is able to infer some preference information in tasks using
// returned answers": one answer narrows a variable for every condition
// that mentions it, and interval reasoning can decide var-vs-var
// expressions that were never asked.
type Knowledge struct {
	levels []int // per attribute
	// ids numbers the variables whose intervals the knowledge keeps:
	// byID[id] is variable id's. Ids past the end of byID are unset.
	// bounded counts the set intervals.
	ids     *VarIDs
	byID    []span
	bounded int
	rel     map[[2]Var]Rel // key ordered by variable identity; value oriented as key[0] REL key[1]

	// NoInference disables all cross-expression reasoning: an answer
	// decides only the literally asked expression, the way a system
	// without the c-table/interval machinery (e.g. CrowdSky) consumes
	// answers. It exists for the answer-propagation ablation benchmark.
	NoInference bool
	exprTruth   map[Expr]bool

	// forgotten is the tombstone set: every variable Forget has ever
	// retracted. Absorb rejects answers mentioning a forgotten variable
	// (ErrForgotten) — stream ids are never reused, so a forgotten
	// variable can only belong to an evicted object, and resurrecting an
	// interval for it would corrupt every later inference. The set grows
	// with evictions, not with answers: callers with unbounded streams
	// pay O(#vars ever forgotten) memory for the structural guarantee
	// that stale answers cannot be absorbed.
	forgotten map[Var]bool

	// Conflicts counts answers Absorb rejected for contradicting earlier
	// knowledge. Discarded answers used to be invisible; the counter (and
	// the ConflictError detail Absorb returns) makes noisy-worker damage
	// observable and drives the crowd phase's re-ask policy.
	Conflicts int
}

// span is one variable's recorded interval of still-possible values;
// set is false until an answer narrows it.
type span struct {
	lo, hi int32
	set    bool
}

// NewKnowledge returns empty knowledge over the dataset's attribute
// domains, keeping the interval of each variable ids numbers in a slice
// indexed by its id, so Bounds and Eval hash nothing. A variable ids does
// not number has the full domain; absorbing a constant comparison on one
// panics, since no interval can be kept for it. A caller that renumbers
// ids keeps the intervals aligned with Slide.
func NewKnowledge(d *dataset.Dataset, ids *VarIDs) *Knowledge {
	levels := make([]int, d.NumAttrs())
	for j, a := range d.Attrs {
		levels[j] = a.Levels
	}
	return &Knowledge{
		levels:    levels,
		ids:       ids,
		byID:      make([]span, ids.Len()),
		rel:       map[[2]Var]Rel{},
		exprTruth: map[Expr]bool{},
		forgotten: map[Var]bool{},
	}
}

// slot returns the interval slot of variable id, or nil when id is -1
// (a variable ids does not number). Slots past the end of byID are read
// as unset, and created, unset, when create is set. It is the one place
// a variable's interval is looked up.
func (k *Knowledge) slot(id int32, create bool) *span {
	if id >= 0 && create && int(id) >= len(k.byID) {
		k.byID = append(k.byID, make([]span, k.ids.Len()-len(k.byID))...)
	}
	if uint(id) >= uint(len(k.byID)) {
		return nil
	}
	return &k.byID[id]
}

// Slide drops the intervals of the n smallest ids, so that they follow a
// renumbering that retires those ids and moves every other id n lower,
// as a sliding window's eviction does. It records no tombstones.
func (k *Knowledge) Slide(n int) {
	n = min(n, len(k.byID))
	for _, sp := range k.byID[:n] {
		if sp.set {
			k.bounded--
		}
	}
	k.byID = k.byID[n:]
}

// Empty reports whether the knowledge currently records nothing: no
// interval was ever narrowed (or everything narrowed has since been
// forgotten), no pairwise relation is stored, and no expression was
// answered. The tombstone set does not count — forgotten variables are
// an absence of knowledge, not a presence. Its one caller outside tests
// is the clause emitter (emitter.start), which treats empty knowledge as
// none and so evaluates no literal until the first answer lands.
func (k *Knowledge) Empty() bool {
	return k.bounded == 0 && len(k.rel) == 0 && len(k.exprTruth) == 0
}

// Bounds returns the inclusive interval of values still possible for x.
func (k *Knowledge) Bounds(x Var) (lo, hi int) {
	id, _ := k.ids.ID(x)
	return k.bounds(x, id)
}

// bounds is Bounds for x given its id, -1 when the numbering lacks x.
func (k *Knowledge) bounds(x Var, id int32) (lo, hi int) {
	lo, hi = 0, k.levels[x.Attr]-1
	if sp := k.slot(id, false); sp != nil && sp.set {
		lo, hi = max(lo, int(sp.lo)), min(hi, int(sp.hi))
	}
	return lo, hi
}

// Pinned reports whether x is known exactly, and its value.
func (k *Knowledge) Pinned(x Var) (int, bool) {
	lo, hi := k.Bounds(x)
	if lo == hi {
		return lo, true
	}
	return 0, false
}

// ErrConflict is returned when an answer contradicts earlier knowledge
// (possible with imperfect workers); the conflicting answer is discarded
// and the previous state kept. Match with errors.Is — the concrete value
// Absorb returns is a *ConflictError carrying the rejected answer.
var ErrConflict = fmt.Errorf("ctable: answer conflicts with existing knowledge")

// ConflictError details one rejected answer: which expression was
// answered, what relation the crowd asserted, and the surviving interval
// it would have emptied (constant comparisons), or for a variable pair
// the stored relation or the two intervals it contradicts.
// errors.Is(err, ErrConflict) matches it.
type ConflictError struct {
	Expr Expr
	Rel  Rel
	// Lo, Hi is the surviving interval of Expr.X, and for a variable
	// pair without a stored relation YLo, YHi is Expr.Y's.
	Lo, Hi, YLo, YHi int
	// Stored is the previously recorded relation of a variable pair, and
	// Related reports that there is one.
	Stored  Rel
	Related bool
}

// Error renders the conflict with the stored fact it contradicts.
func (e *ConflictError) Error() string {
	switch {
	case e.Related:
		return fmt.Sprintf("ctable: answer %v %v %v conflicts with stored relation %v",
			e.Expr.X, e.Rel, e.Expr.Y, e.Stored)
	case e.Expr.Kind == VarGTVar:
		return fmt.Sprintf("ctable: answer %v %v %v conflicts with intervals [%d,%d] and [%d,%d]",
			e.Expr.X, e.Rel, e.Expr.Y, e.Lo, e.Hi, e.YLo, e.YHi)
	}
	return fmt.Sprintf("ctable: answer %v %v %d conflicts with interval [%d,%d]",
		e.Expr.X, e.Rel, e.Expr.C, e.Lo, e.Hi)
}

// Is makes errors.Is(err, ErrConflict) succeed for ConflictError values.
func (e *ConflictError) Is(target error) bool { return target == ErrConflict }

// ErrForgotten is returned when an answer mentions a variable Forget has
// retracted — an answer for an object that already left the streaming
// window. The answer is discarded and nothing is recorded: absorbing it
// would silently resurrect an interval for a variable no live condition
// can mention. Match with errors.Is — the concrete value Absorb returns
// is a *ForgottenError naming the stale variable.
var ErrForgotten = fmt.Errorf("ctable: answer mentions a forgotten variable")

// ForgottenError details one stale answer rejected by the
// Absorb-after-Forget guard: the answered expression, the asserted
// relation, and the first forgotten variable it mentions.
// errors.Is(err, ErrForgotten) matches it.
type ForgottenError struct {
	Expr Expr
	Rel  Rel
	// Var is the forgotten variable the expression mentions.
	Var Var
}

// Error renders the rejection with the stale variable.
func (e *ForgottenError) Error() string {
	return fmt.Sprintf("ctable: answer %v (%v) mentions forgotten variable %v", e.Expr, e.Rel, e.Var)
}

// Is makes errors.Is(err, ErrForgotten) succeed for ForgottenError values.
func (e *ForgottenError) Is(target error) bool { return target == ErrForgotten }

// forgottenVar returns the first forgotten variable the expression
// mentions, if any.
func (k *Knowledge) forgottenVar(e Expr) (Var, bool) {
	if len(k.forgotten) == 0 {
		return Var{}, false
	}
	if k.forgotten[e.X] {
		return e.X, true
	}
	if e.Kind == VarGTVar && k.forgotten[e.Y] {
		return e.Y, true
	}
	return Var{}, false
}

// Absorb records the crowd's answer rel for the expression's comparison
// (left operand REL right operand). For constant comparisons the
// variable's interval shrinks; for variable pairs the relation is stored.
// It returns a *ConflictError (matching ErrConflict) — leaving the
// knowledge unchanged and incrementing Conflicts — if the answer would
// empty the variable's domain, or contradict a stored relation or the
// two variables' intervals, and a
// *ForgottenError (matching ErrForgotten) if the expression mentions a
// variable Forget has retracted; the guard applies under NoInference
// too, so stale answers cannot resurrect state on any path.
func (k *Knowledge) Absorb(e Expr, rel Rel) error {
	if v, gone := k.forgottenVar(e); gone {
		return &ForgottenError{Expr: e, Rel: rel, Var: v}
	}
	if k.NoInference {
		k.exprTruth[e] = exprTruthFromRel(e, rel)
		return nil
	}
	switch e.Kind {
	case VarLTConst, VarGTConst:
		id, _ := k.ids.ID(e.X)
		lo, hi := k.bounds(e.X, id)
		nlo, nhi := lo, hi
		switch rel {
		case LT:
			if e.C-1 < nhi {
				nhi = e.C - 1
			}
		case EQ:
			nlo, nhi = max(nlo, e.C), min(nhi, e.C)
		case GT:
			if e.C+1 > nlo {
				nlo = e.C + 1
			}
		}
		if nlo > nhi {
			k.Conflicts++
			return &ConflictError{Expr: e, Rel: rel, Lo: lo, Hi: hi}
		}
		sp := k.slot(id, true)
		if sp == nil {
			panic(fmt.Sprintf("ctable: knowledge keeps no interval for unnumbered variable %v", e.X))
		}
		if !sp.set {
			k.bounded++
		}
		*sp = span{lo: int32(nlo), hi: int32(nhi), set: true}
		return nil
	case VarGTVar:
		key, oriented := pairKey(e.X, e.Y, rel)
		if old, ok := k.rel[key]; ok && old != oriented {
			k.Conflicts++
			stored, _ := k.relation(e.X, e.Y)
			return &ConflictError{Expr: e, Rel: rel, Stored: stored, Related: true}
		}
		// An answer the intervals rule out would override what they
		// decided (Eval reads a stored relation first), so knowledge
		// would no longer only narrow.
		loX, hiX := k.Bounds(e.X)
		loY, hiY := k.Bounds(e.Y)
		if (rel == LT && loX >= hiY) || (rel == GT && hiX <= loY) || (rel == EQ && (loX > hiY || loY > hiX)) {
			k.Conflicts++
			return &ConflictError{Expr: e, Rel: rel, Lo: loX, Hi: hiX, YLo: loY, YHi: hiY}
		}
		k.rel[key] = oriented
		return nil
	default:
		panic(fmt.Sprintf("ctable: unknown expression kind %d", e.Kind))
	}
}

// pairKey canonicalises an ordered pair (x REL y) so that the map key is
// identity-ordered and the relation is flipped when the operands swap.
func pairKey(x, y Var, rel Rel) (key [2]Var, oriented Rel) {
	if varLess(x, y) {
		return [2]Var{x, y}, rel
	}
	switch rel {
	case LT:
		rel = GT
	case GT:
		rel = LT
	}
	return [2]Var{y, x}, rel
}

func varLess(a, b Var) bool {
	if a.Obj != b.Obj {
		return a.Obj < b.Obj
	}
	return a.Attr < b.Attr
}

// Forget erases everything recorded about the given variables: their
// intervals, every stored relation mentioning one of them, and (under
// NoInference) every answered expression touching them. Knowledge about
// every other variable is untouched, as is the Conflicts counter —
// conflicts already charged against departed objects remain historical
// fact. The streaming engine calls it when an object is evicted, so a
// long-running window does not accumulate relations about variables that
// can never be asked about again; the eviction's Slide has already
// dropped their intervals.
//
// Forget is also a tombstone: the variables join the forgotten set and
// any later Absorb mentioning one of them is rejected with ErrForgotten
// rather than silently resurrecting state — the retraction is permanent,
// which is what makes absorbing a stale crowd answer impossible rather
// than merely unlikely.
//
// Cost is O(len(vars)) for the intervals plus one scan of the stored
// relations and answered expressions; crowd knowledge is small (bounded
// by answers absorbed), so eviction-time scans stay cheap.
func (k *Knowledge) Forget(vars ...Var) {
	if len(vars) == 0 {
		return
	}
	gone := make(map[Var]bool, len(vars))
	for _, v := range vars {
		gone[v] = true
		k.forgotten[v] = true
		id, _ := k.ids.ID(v)
		if sp := k.slot(id, false); sp != nil && sp.set {
			*sp = span{}
			k.bounded--
		}
	}
	for key := range k.rel {
		if gone[key[0]] || gone[key[1]] {
			delete(k.rel, key)
		}
	}
	for e := range k.exprTruth {
		if gone[e.X] || (e.Kind == VarGTVar && gone[e.Y]) {
			delete(k.exprTruth, e)
		}
	}
}

// relation returns the stored relation x REL y, if any.
func (k *Knowledge) relation(x, y Var) (Rel, bool) {
	if len(k.rel) == 0 {
		return 0, false
	}
	key, _ := pairKey(x, y, EQ)
	r, ok := k.rel[key]
	if !ok {
		return 0, false
	}
	if !varLess(x, y) {
		switch r {
		case LT:
			r = GT
		case GT:
			r = LT
		}
	}
	return r, true
}

// exprTruthFromRel converts a crowd answer (left REL right) into the truth
// value of the asked expression.
func exprTruthFromRel(e Expr, rel Rel) bool {
	switch e.Kind {
	case VarLTConst:
		return rel == LT
	case VarGTConst, VarGTVar:
		return rel == GT
	default:
		panic(fmt.Sprintf("ctable: unknown expression kind %d", e.Kind))
	}
}

// Eval decides the expression if current knowledge suffices: interval
// reasoning for constant comparisons and both stored relations and
// disjoint intervals for variable pairs. Under NoInference only exactly
// answered expressions are decided.
func (k *Knowledge) Eval(e Expr) (value, decided bool) {
	x, _ := k.ids.ID(e.X)
	y := int32(-1)
	if e.Kind == VarGTVar {
		y, _ = k.ids.ID(e.Y)
	}
	return k.eval(e, x, y)
}

// eval is Eval given the ids of e.X and e.Y, -1 for one the numbering
// lacks (and for e.Y of a constant comparison).
func (k *Knowledge) eval(e Expr, x, y int32) (value, decided bool) {
	if k.NoInference {
		v, ok := k.exprTruth[e]
		return v, ok
	}
	switch e.Kind {
	case VarLTConst:
		lo, hi := k.bounds(e.X, x)
		if hi < e.C {
			return true, true
		}
		if lo >= e.C {
			return false, true
		}
		return false, false
	case VarGTConst:
		lo, hi := k.bounds(e.X, x)
		if lo > e.C {
			return true, true
		}
		if hi <= e.C {
			return false, true
		}
		return false, false
	case VarGTVar:
		if r, ok := k.relation(e.X, e.Y); ok {
			return r == GT, true
		}
		loX, hiX := k.bounds(e.X, x)
		loY, hiY := k.bounds(e.Y, y)
		if loX > hiY {
			return true, true
		}
		if hiX <= loY {
			return false, true
		}
		return false, false
	default:
		panic(fmt.Sprintf("ctable: unknown expression kind %d", e.Kind))
	}
}

// TrueRel returns the ground-truth relation between the expression's
// operands given the complete dataset — what a perfectly accurate worker
// answers (left operand REL right operand).
func TrueRel(truth *dataset.Dataset, e Expr) Rel {
	x := truth.Value(e.X.Obj, e.X.Attr)
	var y int
	switch e.Kind {
	case VarLTConst, VarGTConst:
		y = e.C
	case VarGTVar:
		y = truth.Value(e.Y.Obj, e.Y.Attr)
	}
	switch {
	case x < y:
		return LT
	case x > y:
		return GT
	default:
		return EQ
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
