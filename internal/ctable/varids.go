package ctable

import (
	"math"
	"math/bits"
	"slices"
)

// VarIDs numbers a set of variables densely, 0 to Len()-1, in
// (Obj, Attr) order: a variable's id is its rank in the set. Per-variable
// state can then live in slices indexed by id instead of maps keyed by
// Var, and comparing two ids compares the variables the way
// Expr.Compare does, which is what lets canonical sorts run on ids.
//
// The table holds no hash: per object from the smallest numbered one
// to the largest, a bitmask of its numbered attributes and the id of its
// first numbered variable (a prefix count), so an id is one popcount
// away and the table costs three words per object of that span — a
// stream window numbers its live objects, not every id the stream has
// issued. A nil *VarIDs numbers nothing. Renumber aside, the table is
// read-only and safe for concurrent use.
type VarIDs struct {
	// off is the smallest numbered object; rows start there.
	off int
	// start[o-off] is the id of object o's first numbered variable; start
	// has one more entry than the span has objects, the last holding
	// Len().
	start []int32
	// mask[(o-off)*words+w] has bit b set when Var{o, 64w+b} is numbered.
	mask  []uint64
	words int
}

// NewVarIDs numbers the distinct variables among vars, which may come in
// any order and repeat. Variables with a negative index are skipped.
func NewVarIDs(vars []Var) *VarIDs {
	t := &VarIDs{}
	t.Renumber(vars)
	return t
}

// Renumber numbers vars afresh, as NewVarIDs does, reusing the table's
// buffers. It writes the table, so it must not run concurrently with
// its readers.
func (t *VarIDs) Renumber(vars []Var) {
	lo, hi, attrs := math.MaxInt, -1, 0
	for _, v := range vars {
		if v.Obj >= 0 && v.Attr >= 0 {
			lo, hi = min(lo, v.Obj), max(hi, v.Obj)
			attrs = max(attrs, v.Attr+1)
		}
	}
	if hi < 0 {
		lo = 0
	}
	objects := hi - lo + 1
	t.off, t.words = lo, (attrs+63)/64
	t.mask = slices.Grow(t.mask[:0], objects*t.words)[:objects*t.words]
	clear(t.mask)
	for _, v := range vars {
		if v.Obj >= 0 && v.Attr >= 0 {
			t.mask[(v.Obj-lo)*t.words+v.Attr/64] |= 1 << (v.Attr % 64)
		}
	}
	t.start = slices.Grow(t.start[:0], objects+1)[:objects+1]
	n := int32(0)
	for o := 0; o < objects; o++ {
		t.start[o] = n
		for _, w := range t.mask[o*t.words : (o+1)*t.words] {
			n += int32(bits.OnesCount64(w))
		}
	}
	t.start[objects] = n
}

// Len returns how many variables the table numbers.
func (t *VarIDs) Len() int {
	if t == nil {
		return 0
	}
	return int(t.start[len(t.start)-1])
}

// ID returns v's id, or false when the table does not number v.
func (t *VarIDs) ID(v Var) (int32, bool) {
	if t == nil {
		return -1, false
	}
	o := v.Obj - t.off
	if uint(o) >= uint(len(t.start)-1) || uint(v.Attr) >= uint(64*t.words) {
		return -1, false
	}
	row := o * t.words
	w := row + v.Attr/64
	bit := uint64(1) << (v.Attr % 64)
	if t.mask[w]&bit == 0 {
		return -1, false
	}
	id := t.start[o] + int32(bits.OnesCount64(t.mask[w]&(bit-1)))
	for _, m := range t.mask[row:w] {
		id += int32(bits.OnesCount64(m))
	}
	return id, true
}

// IDSet is a set of variable ids under one numbering (VarIDs):
// membership by index, members listed in insertion order, cleared in
// time proportional to them. It grows to hold the ids added.
type IDSet struct {
	// IDs lists the members in insertion order. Read-only.
	IDs []int32
	in  []bool
}

// Add puts id in the set.
func (s *IDSet) Add(id int32) {
	if int(id) >= len(s.in) {
		s.in = append(s.in, make([]bool, int(id)+1-len(s.in))...)
	}
	if !s.in[id] {
		s.in[id] = true
		s.IDs = append(s.IDs, id)
	}
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id int32) bool { return uint(id) < uint(len(s.in)) && s.in[id] }

// HasVar reports whether ids numbers v and v's id is in the set.
func (s *IDSet) HasVar(ids *VarIDs, v Var) bool {
	id, ok := ids.ID(v)
	return ok && s.Has(id)
}

// Reset empties the set.
func (s *IDSet) Reset() {
	for _, id := range s.IDs {
		s.in[id] = false
	}
	s.IDs = s.IDs[:0]
}
