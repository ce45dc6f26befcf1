package ctable

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// The stored form. A condition keeps its CNF once, in the shape the
// Pr(φ) solver reads in place (internal/prob), instead of as [][]Expr.
// A build lays out, read-only from then on, from the clauses an emitter
// derived from the objects' cells (build.go) or FromClauses flattened:
//
//   - a variable table in order of first appearance;
//   - the literals in build order, as Lits over that table, with the end
//     of each clause;
//   - per clause, the canonical order of its literals.
//
// Every condition derived from the build by simplification shares those
// arrays and owns only what changed: the list of its live clauses, a bit
// per dropped literal, and its connected components — ordered by their
// last clause, the order a union-find that roots each group at its
// latest clause lists them and the solver multiplies component
// probabilities in — each with its clauses in canonical order and its
// structural hash. Dropping literals keeps the rest of a clause in
// canonical order, so a simplification never re-sorts a clause, and a
// component none of whose clauses changed is carried over whole.
//
// The canonical order is Expr.Compare's: literals within a clause by
// Compare, clauses by the lexicographic order of their sorted literals,
// a shorter prefix first, equal clauses in build order. It compares
// variables by (Obj, Attr), never by table or evaluator id, so two
// occurrences of one component — in different conditions, or in one
// condition before and after a stream window renumbers its variables —
// sort identically. The structural hash
// is FNV-1a over the component's canonical encoding (StructHash), the
// value the component cache keys on and the approximate estimator seeds
// from.
//
// Everything derived — components, canonical orders, hashes — is a pure
// function of the live literals in build order, so a form carried
// through SimplifiedWhere equals the one FromClauses derives from
// scratch out of Clauses().

// Lit is one literal of a condition's stored form: the expression
// Kind(X, Y or C) over the condition's variable table (Condition.Table).
// X and Y index the table; Y is -1 for a constant comparison, and C is 0
// for VarGTVar. The Pr(φ) solver reuses the type with X and Y as its own
// variable ids.
type Lit struct {
	Kind    Kind
	X, Y, C int32
}

// Component is a read-only view of one connected component of a
// condition (Condition.Component).
type Component struct {
	// Canon lists the component's clauses, by their index among the
	// condition's clauses (0 to NumClauses()-1), in canonical order;
	// Condition.AppendCanonClause yields each clause's literals in
	// canonical order.
	Canon []int32
	// Hash is the structural hash of the canonical form (StructHash).
	Hash uint64
	// Direct reports that every variable of the component occurs in it
	// exactly once, so the paper's direct rule prices it without
	// branching. A direct component is a single clause.
	Direct bool
}

// FNV-1a, 64-bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// StructHash is an FNV-1a hash over a component's canonical encoding,
// built up clause by clause: NewStructHash, then for each clause in
// canonical order Clause with its length and Expr for each literal in
// canonical order. The encoding is the byte string the component cache
// was keyed on before it stored hashes — the byte 'P', then per clause
// its length as a uvarint followed by its literals' Expr.AppendKey
// encodings — so the hash, and the approximate estimator's sampler seed
// drawn from it, are unchanged from that scheme.
type StructHash uint64

// NewStructHash returns the hash of the encoding's leading byte.
func NewStructHash() StructHash { return StructHash(fnvOffset).byte('P') }

func (h StructHash) byte(b byte) StructHash { return (h ^ StructHash(b)) * fnvPrime }

// Clause folds in the length prefix of a clause of n literals.
func (h StructHash) Clause(n int) StructHash { return h.uvarint(uint32(n)) }

// Expr folds in one literal's encoding, byte for byte the bytes
// Expr.AppendKey appends.
func (h StructHash) Expr(e Expr) StructHash {
	h = h.byte(byte(e.Kind)).uvarint(uint32(e.X.Obj)).uvarint(uint32(e.X.Attr))
	if e.Kind == VarGTVar {
		return h.uvarint(uint32(e.Y.Obj)).uvarint(uint32(e.Y.Attr))
	}
	return h.uvarint(uint32(e.C))
}

// lit is Expr over a literal and its table, without building the
// expression.
func (h StructHash) lit(vars []Var, l Lit) StructHash {
	x := vars[l.X]
	h = h.byte(byte(l.Kind)).uvarint(uint32(x.Obj)).uvarint(uint32(x.Attr))
	if l.Kind == VarGTVar {
		y := vars[l.Y]
		return h.uvarint(uint32(y.Obj)).uvarint(uint32(y.Attr))
	}
	return h.uvarint(uint32(l.C))
}

// uvarint folds in u's uvarint encoding.
func (h StructHash) uvarint(u uint32) StructHash {
	for u >= 0x80 {
		h = h.byte(byte(u) | 0x80)
		u >>= 7
	}
	return h.byte(byte(u))
}

// form is the scratch of one form derivation, pooled: builds run on the
// worker pool. A build starts from the clauses its emitter holds.
type form struct {
	emitter
	// Variable numbering: an open-addressed table of packed variables
	// (slot keys, 0 = empty) to table indices.
	slotKey []uint64
	slotIdx []int32
	// The build's variable table, and per table variable: its rank in
	// (Obj, Attr) order, union-find owner clause and occurrence count.
	vars               []Var
	rank, owner, count []int32
	// key[j] orders build literal j as CompareLits does (fromClauses).
	key []uint64
	// Per clause: union-find parent, component, and a simplification's
	// live clauses; per component: fill cursor and carried source; the
	// simplification's dropped-literal bits.
	parent, comp, cls, fill, src, dead []int32
	// SimplifiedWhere's marks: per table variable its id under the
	// knowledge's numbering and whether its literals are evaluated, per
	// clause its state and new index, per build literal whether it is
	// dropped, per new clause its carried component, per old component
	// its last clause and new number.
	vid    []int32
	hit    []bool
	state  []int8
	newIdx []int32
	drop   []bool
	of     []int32
	last   []int32
	oldNum []int32
}

var formPool = sync.Pool{New: func() any { return &form{} }}

// fit returns w resized to n, reallocating only when it is too short;
// the contents are unspecified.
func fit[T any](w []T, n int) []T {
	if cap(w) < n {
		return make([]T, n)
	}
	return w[:n]
}

// number returns the table index of v, appending it to *vars on first
// sight. The slot table holds at least twice as many slots as there
// can be variables.
func (f *form) number(vars *[]Var, v Var) int32 {
	k := (uint64(uint32(v.Obj))<<32 | uint64(uint32(v.Attr))) + 1
	mask := uint64(len(f.slotKey) - 1)
	i := (k * 0x9E3779B97F4A7C15 >> 32) & mask
	for {
		switch f.slotKey[i] {
		case k:
			return f.slotIdx[i]
		case 0:
			id := int32(len(*vars))
			f.slotKey[i], f.slotIdx[i] = k, id
			*vars = append(*vars, v)
			return id
		}
		i = (i + 1) & mask
	}
}

// condition lays out the emitted clauses: false after an empty clause,
// true with none, the stored form otherwise. It lets go of the emission's
// cells and knowledge, so the pooled scratch keeps neither alive.
func (f *form) condition() *Condition {
	f.oCells, f.k = nil, nil
	switch {
	case f.empty:
		return False()
	case len(f.ends) == 0:
		return True()
	}
	exprs, ends := f.exprs, f.ends
	nl, nc := len(exprs), len(ends)
	slots := 4
	for slots < 4*nl {
		slots *= 2
	}
	f.slotKey = fit(f.slotKey, slots)
	clear(f.slotKey)
	f.slotIdx = fit(f.slotIdx, slots)

	c := &Condition{lits: make([]Lit, nl), base: make([]int32, nc+nl), nb: int32(nc), nLits: int32(nl)}
	vars := f.vars[:0]
	for j, e := range exprs {
		if e.C < math.MinInt32 || e.C > math.MaxInt32 {
			panic(fmt.Sprintf("ctable: constant of %v out of range", e))
		}
		l := Lit{Kind: e.Kind, X: f.number(&vars, e.X), Y: -1}
		switch e.Kind {
		case VarGTVar:
			l.Y = f.number(&vars, e.Y)
		case VarLTConst, VarGTConst:
			l.C = int32(e.C)
		default:
			panic(fmt.Sprintf("ctable: unknown expression kind %d", e.Kind))
		}
		c.lits[j] = l
	}
	copy(c.base, ends)
	f.vars = vars
	c.vars = slices.Clone(vars)
	f.keys(c)
	for i := range ends {
		f.sortClause(c, int32(i))
	}
	f.derive(c, nil, nil, nil)
	return c
}

// Views of the arrays. base holds the build's clause ends, then its
// canonical literal orders; own holds the condition's live clauses
// (absent when they are every build clause, in order), then its
// components' clauses in canonical order, their offsets, their hashes
// and direct flags, the table variables' components, and the
// dropped-literal bits.

func (c *Condition) orders() []int32 { return c.base[c.nb:] }

func (c *Condition) clsLen() int32 {
	if c.ident {
		return 0
	}
	return c.nc
}

func (c *Condition) canon() []int32 { a := c.clsLen(); return c.own[a : a+c.nc] }
func (c *Condition) offs() []int32  { a := c.clsLen() + c.nc; return c.own[a : a+c.ng+1] }
func (c *Condition) meta() []int32  { a := c.clsLen() + c.nc + c.ng + 1; return c.own[a : a+3*c.ng] }

// varComp and dead are nil for a decided condition, which has no own
// arrays.
func (c *Condition) varComp() []int32 {
	if c.own == nil {
		return nil
	}
	a := c.clsLen() + c.nc + 4*c.ng + 1
	return c.own[a : a+int32(len(c.vars))]
}

func (c *Condition) dead() []int32 {
	if c.own == nil {
		return nil
	}
	return c.own[c.deadAt:]
}

// clause returns the build clause of the condition's i-th clause.
func (c *Condition) clause(i int) int32 {
	if c.ident {
		return int32(i)
	}
	return c.own[i]
}

// span returns the build literals of the condition's i-th clause.
func (c *Condition) span(i int) (lo, hi int32) {
	b := c.clause(i)
	if b > 0 {
		lo = c.base[b-1]
	}
	return lo, c.base[b]
}

// live reports whether build literal j is not dropped.
func (c *Condition) live(j int32) bool {
	return int(c.deadAt) >= len(c.own) || uint32(c.own[c.deadAt+j>>5])&(1<<(j&31)) == 0
}

// cmpVar orders variables by (Obj, Attr).
func cmpVar(a, b Var) int {
	switch {
	case a.Obj < b.Obj:
		return -1
	case a.Obj > b.Obj:
		return 1
	case a.Attr < b.Attr:
		return -1
	case a.Attr > b.Attr:
		return 1
	}
	return 0
}

// CompareLits orders two literals as Expr.Compare orders their
// expressions — by kind, then left variable, then right variable or
// constant — reading the literals' variables from vars.
func CompareLits(vars []Var, a, b Lit) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if c := cmpVar(vars[a.X], vars[b.X]); c != 0 {
		return c
	}
	if a.Kind == VarGTVar {
		return cmpVar(vars[a.Y], vars[b.Y])
	}
	switch {
	case a.C < b.C:
		return -1
	case a.C > b.C:
		return 1
	}
	return 0
}

// keys computes f.key for every literal of a fresh build: the kind,
// the rank of the left variable in (Obj, Attr) order, then the right
// variable's rank or the constant, so that comparing keys compares the
// literals as CompareLits does.
func (f *form) keys(c *Condition) {
	nv := len(c.vars)
	byVar := fit(f.owner, nv) // owner is free until derive
	f.owner = byVar
	for v := range byVar {
		byVar[v] = int32(v)
	}
	slices.SortFunc(byVar, func(a, b int32) int { return cmpVar(c.vars[a], c.vars[b]) })
	rank := fit(f.rank, nv)
	f.rank = rank
	for r, v := range byVar {
		rank[v] = int32(r)
	}
	key := fit(f.key, len(c.lits))
	f.key = key
	for j, l := range c.lits {
		low := uint64(uint32(l.C)) ^ 1<<31 // order-preserving for a signed constant
		if l.Kind == VarGTVar {
			low = uint64(rank[l.Y])
		}
		key[j] = uint64(l.Kind)<<62 | uint64(rank[l.X])<<32 | low
	}
}

// sortClause derives build clause b's canonical literal order from the
// literal keys — an insertion sort, since clauses hold a handful of
// literals.
func (f *form) sortClause(c *Condition, b int32) {
	lo := int32(0)
	if b > 0 {
		lo = c.base[b-1]
	}
	hi := c.base[b]
	key, ord := f.key[lo:hi], c.orders()[lo:hi]
	for k := range ord {
		ord[k] = int32(k)
	}
	for k := 1; k < len(ord); k++ {
		p, m := ord[k], k
		for m > 0 && key[ord[m-1]] > key[p] {
			ord[m] = ord[m-1]
			m--
		}
		ord[m] = p
	}
}

// cmpKeyed is cmpClause over the literal keys of a fresh build, which
// drops no literal.
func (f *form) cmpKeyed(c *Condition, a, b int32) int {
	la, ha := c.span(int(a))
	lb, hb := c.span(int(b))
	order := c.orders()
	for ia, ib := la, lb; ; ia, ib = ia+1, ib+1 {
		switch {
		case ia == ha && ib == hb:
			return int(a - b)
		case ia == ha:
			return -1
		case ib == hb:
			return 1
		}
		if x, y := f.key[la+order[ia]], f.key[lb+order[ib]]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
}

// sortClauses sorts a fresh build's component canonically — an
// insertion sort for the usual handful, the library sort past it.
func (f *form) sortClauses(c *Condition, block []int32) {
	cmp := func(a, b int32) int { return f.cmpKeyed(c, a, b) }
	if len(block) > 12 {
		slices.SortFunc(block, cmp)
		return
	}
	for k := 1; k < len(block); k++ {
		p, m := block[k], k
		for m > 0 && cmp(block[m-1], p) > 0 {
			block[m] = block[m-1]
			m--
		}
		block[m] = p
	}
}

// cmpClause orders the condition's clauses a and b canonically: their
// live literals in canonical order compared lexicographically by
// CompareLits, a proper prefix first, and equal clauses by index — so
// the order is total and every derivation lays a component out alike.
func (c *Condition) cmpClause(a, b int32) int {
	la, ha := c.span(int(a))
	lb, hb := c.span(int(b))
	order := c.orders()
	ia, ib := la, lb
	for {
		for ia < ha && !c.live(la+order[ia]) {
			ia++
		}
		for ib < hb && !c.live(lb+order[ib]) {
			ib++
		}
		switch {
		case ia == ha && ib == hb:
			return int(a - b)
		case ia == ha:
			return -1
		case ib == hb:
			return 1
		}
		if r := CompareLits(c.vars, c.lits[la+order[ia]], c.lits[lb+order[ib]]); r != 0 {
			return r
		}
		ia++
		ib++
	}
}

// insertClause inserts clause p into block, which holds its first n
// entries in canonical order, keeping them in order.
func (c *Condition) insertClause(block []int32, n int, p int32) {
	lo, hi := 0, n
	for lo < hi {
		if m := (lo + hi) / 2; c.cmpClause(block[m], p) <= 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	copy(block[lo+1:n+1], block[lo:n])
	block[lo] = p
}

// carry describes the components SimplifiedWhere keeps unchanged from
// the condition it simplifies.
type carry struct {
	old *Condition
	// of[i] is the old component new clause i belongs to when that
	// component is carried unchanged, else -1.
	of []int32
	// newIdx[i] is old clause i's new index, -1 when it was satisfied;
	// last[k] is carried old component k's last clause in the new
	// numbering, -1 for a component that changed, and num[k] its new
	// component number.
	newIdx, last, num []int32
	// state[i] is old clause i's state.
	state []int8
}

// find is union-find's root lookup with path halving.
func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// derive lays out c's own arrays — c's table, literals and build being
// in place — for its live clauses cls (nil: every build clause, in
// order) and its dropped-literal bits dead (nil: none): the components
// of the clause-variable graph, ordered by last clause, with their
// canonical clause orders, hashes and direct flags. The components cr
// carries are copied, with their clauses renumbered; the other clauses
// are grouped afresh. A fresh build (cr nil) sorts each group by f.key;
// a simplification lists a group's unchanged clauses in the order they
// had in the components they came from — dropping clauses keeps the
// rest sorted — and inserts its shrunk ones.
func (f *form) derive(c *Condition, cls, dead []int32, cr *carry) {
	nc, nv := len(cls), len(c.vars)
	if cls == nil {
		nc = int(c.nb)
	}
	var of []int32 // per clause: carried old component, or -1
	if cr != nil {
		of = cr.of
	}
	span := func(i int) (lo, hi int32) {
		b := int32(i)
		if cls != nil {
			b = cls[i]
		}
		if b > 0 {
			lo = c.base[b-1]
		}
		return lo, c.base[b]
	}
	live := func(j int32) bool { return len(dead) == 0 || uint32(dead[j>>5])&(1<<(j&31)) == 0 }

	// Union-find over the fresh clauses, in clause order, rooting each
	// group at its latest clause.
	parent := fit(f.parent, nc)
	f.parent = parent
	owner := fit(f.owner, nv)
	f.owner = owner
	for v := range owner {
		owner[v] = -1
	}
	claim := func(v, i int32) {
		if o := owner[v]; o < 0 {
			owner[v] = i
		} else if r := find(parent, o); r != i {
			parent[r] = i
		}
	}
	for i := 0; i < nc; i++ {
		parent[i] = int32(i)
		if of != nil && of[i] >= 0 {
			continue
		}
		lo, hi := span(i)
		for j := lo; j < hi; j++ {
			if l := c.lits[j]; live(j) {
				claim(l.X, int32(i))
				if l.Y >= 0 {
					claim(l.Y, int32(i))
				}
			}
		}
	}

	// Number the components in order of their last clause: a fresh
	// group's is its root, a carried one's its largest clause index.
	comp := fit(f.comp, nc)
	f.comp = comp
	g := int32(0)
	for i := 0; i < nc; i++ {
		if of != nil && of[i] >= 0 {
			if k := of[i]; cr.last[k] == int32(i) {
				cr.num[k] = g
				g++
			}
			continue
		}
		if find(parent, int32(i)) == int32(i) {
			comp[i] = g
			g++
		}
	}
	// A fresh clause's root is its group's latest clause, numbered above.
	for i := nc - 1; i >= 0; i-- {
		if of != nil && of[i] >= 0 {
			comp[i] = cr.num[of[i]]
		} else if r := parent[i]; r != int32(i) {
			comp[i] = comp[find(parent, r)]
		}
	}

	// The own arrays, sized exactly.
	c.nc, c.ng, c.ident = int32(nc), g, cls == nil
	c.deadAt = c.clsLen() + int32(nc) + 4*g + 1 + int32(nv)
	c.own = make([]int32, int(c.deadAt)+len(dead))
	copy(c.own, cls)
	copy(c.dead(), dead)
	canon, off, meta, varComp := c.canon(), c.offs(), c.meta(), c.varComp()

	// Lay the components' clauses out: a fresh one's in clause order (and
	// sorted below), a carried one's in its canonical order.
	for _, k := range comp[:nc] {
		off[k+1]++
	}
	for k := int32(0); k < g; k++ {
		off[k+1] += off[k]
	}
	fill := fit(f.fill, int(g))
	f.fill = fill
	copy(fill, off[:g])
	src := fit(f.src, int(g))
	f.src = src
	for k := range src {
		src[k] = -1
	}
	switch {
	case cr == nil:
		for i := 0; i < nc; i++ {
			canon[fill[comp[i]]] = int32(i)
			fill[comp[i]]++
		}
	default:
		for i := 0; i < nc; i++ {
			if of[i] >= 0 {
				src[comp[i]] = of[i]
			}
		}
		oldCanon, oldOff := cr.old.canon(), cr.old.offs()
		for g, last := range cr.last {
			if last >= 0 {
				continue // carried
			}
			for _, oc := range oldCanon[oldOff[g]:oldOff[g+1]] {
				if ni := cr.newIdx[oc]; ni >= 0 && cr.state[oc] == clauseKept {
					canon[fill[comp[ni]]] = ni
					fill[comp[ni]]++
				}
			}
		}
		for oc, st := range cr.state[:len(cr.newIdx)] {
			if st == clauseShrunk {
				ni := cr.newIdx[oc]
				k := comp[ni]
				c.insertClause(canon[off[k]:off[k+1]], int(fill[k]-off[k]), ni)
				fill[k]++
			}
		}
	}
	count := fit(f.count, nv)
	f.count = count
	clear(count)
	order := c.orders()
	for k := int32(0); k < g; k++ {
		block := canon[off[k]:off[k+1]]
		m := meta[3*k : 3*k+3]
		if o := src[k]; o >= 0 {
			oldCanon, oldOff := cr.old.canon(), cr.old.offs()
			for j, oc := range oldCanon[oldOff[o]:oldOff[o+1]] {
				block[j] = cr.newIdx[oc]
			}
			copy(m, cr.old.meta()[3*o:3*o+3])
			continue
		}
		if cr == nil {
			f.sortClauses(c, block)
		}
		h := NewStructHash()
		direct := int32(1)
		for _, ci := range block {
			lo, hi := c.span(int(ci))
			n := 0
			for j := lo; j < hi; j++ {
				if c.live(j) {
					n++
				}
			}
			h = h.Clause(n)
			for _, p := range order[lo:hi] {
				if !c.live(lo + p) {
					continue
				}
				l := c.lits[lo+p]
				h = h.lit(c.vars, l)
				count[l.X]++
				if count[l.X] > 1 {
					direct = 0
				}
				if l.Y >= 0 {
					count[l.Y]++
					if count[l.Y] > 1 {
						direct = 0
					}
				}
			}
		}
		m[0], m[1], m[2] = int32(uint32(h>>32)), int32(uint32(h)), direct
	}
	// A carried component keeps its variables; the rest are read off
	// the fresh clauses.
	var oldComp []int32
	if cr != nil {
		oldComp = cr.old.varComp()
	}
	for v := range varComp {
		varComp[v] = -1
		if oldComp != nil {
			if o := oldComp[v]; o >= 0 && cr.last[o] >= 0 {
				varComp[v] = cr.num[o]
			}
		}
	}
	for i := 0; i < nc; i++ {
		if of != nil && of[i] >= 0 {
			continue
		}
		k := comp[i]
		lo, hi := c.span(i)
		for j := lo; j < hi; j++ {
			if l := c.lits[j]; c.live(j) {
				varComp[l.X] = k
				if l.Y >= 0 {
					varComp[l.Y] = k
				}
			}
		}
	}
}

// Clause states of SimplifiedWhere.
const (
	clauseKept int8 = iota
	clauseSatisfied
	clauseShrunk
	clauseEmptied
)

// mark resolves each variable c mentions to its id under k's numbering,
// once, and marks those whose literals are evaluated: every one when
// touched is nil, else those whose id is in touched. It reports whether
// it marked any.
func (f *form) mark(c *Condition, k *Knowledge, touched *IDSet) bool {
	comp := c.varComp()
	f.vid = fit(f.vid, len(c.vars))
	f.hit = fit(f.hit, len(c.vars))
	marked := false
	for v, x := range c.vars {
		f.hit[v] = false
		if comp[v] < 0 {
			continue
		}
		id, _ := k.ids.ID(x)
		f.vid[v] = id
		f.hit[v] = touched == nil || touched.Has(id)
		marked = marked || f.hit[v]
	}
	return marked
}

// clauseState evaluates clause i's live literals on a marked variable
// under the knowledge: satisfied when one is decided true, emptied when
// every live literal is decided false, shrunk when some are, kept
// otherwise. It marks in f.drop, by build literal, each live literal
// decided false — all of them unless the clause is satisfied.
func (f *form) clauseState(c *Condition, i int, k *Knowledge) int8 {
	lo, hi := c.span(i)
	dead, n := 0, 0
	for j := lo; j < hi; j++ {
		if !c.live(j) {
			continue
		}
		n++
		l := c.lits[j]
		decided, v := false, false
		if f.hit[l.X] || (l.Y >= 0 && f.hit[l.Y]) {
			y := int32(-1)
			if l.Y >= 0 {
				y = f.vid[l.Y]
			}
			v, decided = k.eval(c.exprOf(l), f.vid[l.X], y)
		}
		if decided && v {
			return clauseSatisfied
		}
		if decided {
			dead++
		}
		f.drop[j] = decided
	}
	switch dead {
	case 0:
		return clauseKept
	case n:
		return clauseEmptied
	}
	return clauseShrunk
}

// simplified builds the simplification of c given the clause states in
// f.state and the dropped literals in f.drop (some clause changed, none
// emptied, some survived). The result shares c's table, literals and
// canonical literal orders; it owns its live clauses, its dropped
// literals — c's and the new ones — and its components, every one of
// which none of whose clauses changed carried over from c, the rest
// derived afresh.
func (f *form) simplified(c *Condition) *Condition {
	nc, ncompOld := int(c.nc), c.NumComponents()
	state, drop := f.state, f.drop
	newIdx := fit(f.newIdx, nc)
	f.newIdx = newIdx
	nl, ncNew, shrunk := c.nLits, 0, false
	for i := 0; i < nc; i++ {
		switch state[i] {
		case clauseSatisfied:
			newIdx[i] = -1
			lo, hi := c.span(i)
			for j := lo; j < hi; j++ {
				if c.live(j) {
					nl--
				}
			}
			continue
		case clauseShrunk:
			shrunk = true
			lo, hi := c.span(i)
			for j := lo; j < hi; j++ {
				if drop[j] && c.live(j) {
					nl--
				}
			}
		}
		newIdx[i] = int32(ncNew)
		ncNew++
	}

	out := &Condition{vars: c.vars, lits: c.lits, base: c.base, nb: c.nb, nLits: nl}
	dead := c.dead()
	if shrunk {
		bits := fit(f.dead, (len(c.lits)+31)/32)
		f.dead = bits
		clear(bits)
		copy(bits, dead)
		dead = bits
		for i := 0; i < nc; i++ {
			if state[i] != clauseShrunk {
				continue
			}
			lo, hi := c.span(i)
			for j := lo; j < hi; j++ {
				if drop[j] {
					dead[j>>5] |= int32(uint32(1) << (j & 31))
				}
			}
		}
	}
	cls := fit(f.cls, ncNew)
	f.cls = cls
	for i, ni := range newIdx[:nc] {
		if ni >= 0 {
			cls[ni] = c.clause(i)
		}
	}

	// Carry every old component none of whose clauses changed.
	last := fit(f.last, ncompOld)
	f.last = last
	oldNum := fit(f.oldNum, ncompOld)
	f.oldNum = oldNum
	of := fit(f.of, ncNew)
	f.of = of
	canon, off := c.canon(), c.offs()
	for g := 0; g < ncompOld; g++ {
		block := canon[off[g]:off[g+1]]
		ch := false
		for _, oc := range block {
			ch = ch || state[oc] != clauseKept
		}
		last[g] = -1
		for _, oc := range block {
			ni := newIdx[oc]
			if ni < 0 {
				continue
			}
			of[ni] = -1
			if !ch {
				of[ni] = int32(g)
				if ni > last[g] {
					last[g] = ni
				}
			}
		}
	}
	f.derive(out, cls, dead, &carry{old: c, of: of, newIdx: newIdx, last: last, num: oldNum, state: state})
	return out
}
