package ctable

import "math/bits"

// VarIDs numbers a fixed set of variables densely, 0 to Len()-1, in
// (Obj, Attr) order: a variable's id is its rank in the set. Per-variable
// state can then live in slices indexed by id instead of maps keyed by
// Var, and comparing two ids compares the variables the way
// Expr.Compare does, which is what lets canonical sorts run on ids.
//
// The table holds no hash: per object, a bitmask of its numbered
// attributes and the id of its first numbered variable (a prefix
// count), so an id is one popcount away and the table costs three words
// per object. A nil *VarIDs numbers nothing. It is immutable once built
// and safe for concurrent use.
type VarIDs struct {
	// start[o] is the id of object o's first numbered variable; start has
	// one more entry than there are objects, the last holding Len().
	start []int32
	// mask[o*words+w] has bit b set when Var{o, 64w+b} is numbered.
	mask  []uint64
	words int
}

// NewVarIDs numbers the distinct variables among vars, which may come in
// any order and repeat. Variables with a negative index are skipped.
func NewVarIDs(vars []Var) *VarIDs {
	objects, attrs := 0, 0
	for _, v := range vars {
		objects = max(objects, v.Obj+1)
		attrs = max(attrs, v.Attr+1)
	}
	t := &VarIDs{words: (attrs + 63) / 64}
	t.mask = make([]uint64, objects*t.words)
	for _, v := range vars {
		if v.Obj >= 0 && v.Attr >= 0 {
			t.mask[v.Obj*t.words+v.Attr/64] |= 1 << (v.Attr % 64)
		}
	}
	t.start = make([]int32, objects+1)
	n := int32(0)
	for o := 0; o < objects; o++ {
		t.start[o] = n
		for _, w := range t.mask[o*t.words : (o+1)*t.words] {
			n += int32(bits.OnesCount64(w))
		}
	}
	t.start[objects] = n
	return t
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
	if t == nil || uint(v.Obj) >= uint(len(t.start)-1) || uint(v.Attr) >= uint(64*t.words) {
		return -1, false
	}
	row := v.Obj * t.words
	w := row + v.Attr/64
	bit := uint64(1) << (v.Attr % 64)
	if t.mask[w]&bit == 0 {
		return -1, false
	}
	id := t.start[v.Obj] + int32(bits.OnesCount64(t.mask[w]&(bit-1)))
	for _, m := range t.mask[row:w] {
		id += int32(bits.OnesCount64(m))
	}
	return id, true
}
