package ctable

import (
	"fmt"
	"slices"
	"sort"

	"bayescrowd/internal/bitset"
	"bayescrowd/internal/dataset"
)

// DynCTable maintains the c-table of a changing object set — the
// incremental counterpart of Build for streaming workloads: objects are
// inserted and evicted one at a time, and only the dominator lists the
// change actually touches are extended or shortened, never a full
// O(n²)-flavoured rebuild.
//
// Identity: every inserted object receives a monotonically increasing
// stream id, and its c-table variables are numbered Var{id, attr}. Ids
// are never reused, so a variable's identity survives any interleaving
// of inserts and evictions — which is what lets a prob.ComponentCache's
// keys and a Knowledge's intervals ride across edits without aliasing.
// Internally objects occupy recycled *slots* of a DynDomIndex bit
// universe; slots are invisible to callers.
//
// Storage: per live object the table keeps its cells, its dominator set
// D(o) as a list of slots, and how many of those dominators certainly
// dominate it (an empty clause). It keeps no clause: a clause [p ⊀ o]
// is a pure function of the two objects' (immutable) cells, so Cond
// re-derives the condition from the cells when it is asked for, and
// each window condition is held once, in the stored form the caller
// caches.
//
// Maintenance: Insert(cells) derives the new object's dominator set with
// one d-way AND over the live per-dimension index (the updatable form of
// the sort-partition build's index); the reverse query (Dominatees)
// finds every live object the newcomer possibly dominates, and each of
// those lists gains the newcomer. Evict(id) runs the reverse query once
// more and retracts the departed object from each affected list. Both
// directions rely on the possible-dominance predicate being a pure
// function of the two objects' cells, so the reverse edges are never
// stored.
//
// Dominator lists are kept ascending by stream id; since a new dominator
// always carries the largest id yet, insertion is an append and
// retraction a binary search. Cond emits clauses in ascending
// dominator-id order — the same order the batch build emits (ascending
// dataset index) — so a window rebuilt from scratch yields literally the
// same CNF modulo the id↔index renaming.
//
// DynCTable is not safe for concurrent mutation; like the batch build's
// caller it is single-writer, with reads (Cond, IDs) safe between
// mutations.
type DynCTable struct {
	attrs  []dataset.Attribute
	idx    *DynDomIndex
	slots  []dynSlot
	free   []int
	slotOf map[int]int
	nextID int
	live   int

	// dirty accumulates the ids whose condition changed since the last
	// DrainDirty — the delta a streaming evaluator needs to re-solve.
	dirty map[int]struct{}

	// query and clause scratch, reused across Insert/Evict calls.
	dom, rev *bitset.Set
	clause   emitter
}

// dynSlot is the per-slot state of one live object.
type dynSlot struct {
	live  bool
	id    int
	cells []dataset.Cell
	// doms is D(o): the slots of the object's possible dominators,
	// ascending by their stream id.
	doms []int32
	// empty counts the dominators whose clause is empty; the condition
	// is decided false while empty > 0.
	empty int
}

// NewDynCTable returns an empty incremental c-table over the attribute
// schema. capacity hints the expected window size (slots grow on
// demand).
func NewDynCTable(attrs []dataset.Attribute, capacity int) *DynCTable {
	idx := NewDynDomIndex(attrs, capacity)
	return &DynCTable{
		attrs:  attrs,
		idx:    idx,
		slotOf: map[int]int{},
		dirty:  map[int]struct{}{},
		dom:    bitset.New(idx.Cap()),
		rev:    bitset.New(idx.Cap()),
	}
}

// Len returns the number of live objects.
func (t *DynCTable) Len() int { return t.live }

// IDs returns the live stream ids in ascending order — arrival order,
// since ids are monotonic.
func (t *DynCTable) IDs() []int {
	out := make([]int, 0, t.live)
	for s := range t.slots {
		if t.slots[s].live {
			out = append(out, t.slots[s].id)
		}
	}
	sort.Ints(out)
	return out
}

// Live reports whether the id currently names a live window object. Ids
// are monotonic and never reused, so false means the object was evicted
// (or never existed) — the check the streaming crowd loop runs before
// absorbing an answer, since every answer races the eviction of the
// object it describes.
func (t *DynCTable) Live(id int) bool {
	_, ok := t.slotOf[id]
	return ok
}

// Cells returns the stored cells of a live object. The returned slice is
// the table's own storage: callers must not mutate it.
func (t *DynCTable) Cells(id int) []dataset.Cell {
	return t.slots[t.mustSlot(id)].cells
}

// DomSize returns |D(o)| for the live object — the number of clauses its
// unsimplified condition carries.
func (t *DynCTable) DomSize(id int) int {
	return len(t.slots[t.mustSlot(id)].doms)
}

// MissingVars appends Var{id, j} for every missing cell of the given
// cells to dst and returns it — the variables an object contributes to
// the c-table.
func MissingVars(id int, cells []dataset.Cell, dst []Var) []Var {
	for j, c := range cells {
		if c.Missing {
			dst = append(dst, Var{Obj: id, Attr: j})
		}
	}
	return dst
}

// Insert adds an object, assigns it the next stream id, derives its
// dominator set from the live index, and adds the object to the
// dominator set of every live object it possibly dominates. It returns
// the new id and the object's c-table variables (one per missing cell).
// The new object and every patched one are marked dirty.
func (t *DynCTable) Insert(cells []dataset.Cell) (id int, vars []Var) {
	if len(cells) != len(t.attrs) {
		panic(fmt.Sprintf("ctable: Insert with %d cells, schema has %d attributes", len(cells), len(t.attrs)))
	}
	for j, c := range cells {
		if !c.Missing && (c.Value < 0 || c.Value >= t.attrs[j].Levels) {
			panic(fmt.Sprintf("ctable: Insert value %d outside [0,%d) in attribute %d", c.Value, t.attrs[j].Levels, j))
		}
	}
	id = t.nextID
	t.nextID++

	slot := t.allocSlot()

	// Both directions are answered before the newcomer joins the index,
	// so neither set can contain its own slot.
	t.idx.Dominators(cells, t.dom)
	t.idx.Dominatees(cells, t.rev)

	// The newcomer's dominators, gathered in ascending slot order then
	// sorted by id (slot recycling makes the two orders diverge).
	s := &t.slots[slot]
	s.live = true
	s.id = id
	s.cells = append(s.cells[:0], cells...)
	s.doms = s.doms[:0]
	s.empty = 0
	t.dom.ForEach(func(p int) bool {
		ps := &t.slots[p]
		if t.emptyClause(id, s.cells, ps.id, ps.cells) {
			s.empty++
		}
		s.doms = append(s.doms, int32(p))
		return true
	})
	slices.SortFunc(s.doms, func(a, b int32) int { return t.slots[a].id - t.slots[b].id })

	// Every object the newcomer possibly dominates gains it as a
	// dominator; the new id is the largest yet, so the append keeps the
	// list sorted.
	t.rev.ForEach(func(q int) bool {
		qs := &t.slots[q]
		wasFalse := qs.empty > 0
		if t.emptyClause(qs.id, qs.cells, id, s.cells) {
			qs.empty++
		}
		qs.doms = append(qs.doms, int32(slot))
		// A condition that was decided false and stays decided false kept
		// its probability (0): no need to re-solve it. On correlated data
		// most of a newcomer's dominatees are certainly dominated already,
		// so this skip is the difference between patching a handful of
		// live conditions and re-solving half the window.
		if !wasFalse || qs.empty == 0 {
			t.dirty[qs.id] = struct{}{}
		}
		return true
	})

	t.idx.Insert(slot, s.cells)
	t.slotOf[id] = slot
	t.live++
	t.dirty[id] = struct{}{}
	return id, MissingVars(id, cells, nil)
}

// Evict removes a live object: its dominator set is dropped and it is
// retracted from the dominator set of every live object it possibly
// dominated (patching their conditions back to what a fresh build over
// the remaining window would emit). It returns the evicted object's
// c-table variables so the caller can invalidate cached components and
// forget crowd knowledge about them; every patched object is marked
// dirty.
func (t *DynCTable) Evict(id int) (vars []Var) {
	slot := t.mustSlot(id)
	s := &t.slots[slot]

	t.dominatees(slot)
	t.rev.ForEach(func(q int) bool {
		qs := &t.slots[q]
		wasFalse := qs.empty > 0
		i := sort.Search(len(qs.doms), func(i int) bool { return t.slots[qs.doms[i]].id >= id })
		if i == len(qs.doms) || qs.doms[i] != int32(slot) {
			panic(fmt.Sprintf("ctable: evict %d: object %d lacks the dominator to retract", id, qs.id))
		}
		if t.emptyClause(qs.id, qs.cells, id, s.cells) {
			qs.empty--
		}
		qs.doms = append(qs.doms[:i], qs.doms[i+1:]...)
		// Same still-false skip as Insert: losing one dominator cannot
		// revive a condition still pinned false by another empty clause.
		if !wasFalse || qs.empty == 0 {
			t.dirty[qs.id] = struct{}{}
		}
		return true
	})

	vars = MissingVars(id, s.cells, nil)
	t.idx.Evict(slot, s.cells)
	s.live = false
	s.doms = s.doms[:0]
	s.empty = 0
	delete(t.slotOf, id)
	delete(t.dirty, id)
	t.free = append(t.free, slot)
	t.live--
	return vars
}

// Dominatees appends to dst the ids of the live objects that the live
// object id possibly dominates, in no particular order, and returns it.
// They are exactly the objects whose condition carries a clause for id,
// so with id itself they are the only ones whose condition can mention
// id's variables. Like Insert and Evict it reuses the table's query
// scratch, so it must not run concurrently with them or with itself.
func (t *DynCTable) Dominatees(id int, dst []int) []int {
	t.dominatees(t.mustSlot(id))
	t.rev.ForEach(func(q int) bool {
		dst = append(dst, t.slots[q].id)
		return true
	})
	return dst
}

// dominatees leaves in t.rev the live slots the object in slot possibly
// dominates; the reverse query still sees the object itself, so its own
// slot is cleared.
func (t *DynCTable) dominatees(slot int) {
	t.idx.Dominatees(t.slots[slot].cells, t.rev)
	t.rev.Clear(slot)
}

// emptyClause reports whether the clause [p ⊀ o] is empty — p certainly
// dominates o — reading it off the table's own emitter.
func (t *DynCTable) emptyClause(o int, oCells []dataset.Cell, p int, pCells []dataset.Cell) bool {
	t.clause.start(t.attrs, o, oCells, nil)
	return !t.clause.add(p, pCells)
}

// Cond derives the current condition φ(o) of a live object from the
// cells under the knowledge k: the result Simplified(k) gives on the
// unsimplified condition, laid out once. A nil or empty k filters
// nothing, which is what the machine engine asks for. The condition is
// decided false while any clause is empty and decided true with no
// dominators (or every clause satisfied); its clauses appear in
// ascending dominator-id order. Cond reads the table only, with pooled
// scratch, so conditions may be derived concurrently between mutations.
func (t *DynCTable) Cond(id int, k *Knowledge) *Condition {
	s := &t.slots[t.mustSlot(id)]
	if s.empty > 0 {
		return False()
	}
	f := formPool.Get().(*form)
	defer formPool.Put(f)
	f.start(t.attrs, id, s.cells, k)
	for _, p := range s.doms {
		ps := &t.slots[p]
		if !f.add(ps.id, ps.cells) {
			break
		}
	}
	return f.condition()
}

// DrainDirty returns the ids whose condition changed since the last
// drain, ascending, and resets the dirty set. Evicted ids never appear —
// an eviction removes the id from the set along with the object.
func (t *DynCTable) DrainDirty() []int {
	if len(t.dirty) == 0 {
		return nil
	}
	out := make([]int, 0, len(t.dirty))
	for id := range t.dirty {
		out = append(out, id)
	}
	sort.Ints(out)
	clear(t.dirty)
	return out
}

// Window assembles the live objects, ascending by id, into a fresh
// dataset — the input a batch rebuild of the current window would see.
// ids[i] is the stream id of window object i, the renaming under which
// Build's table equals this one (the equivalence tests' anchor).
func (t *DynCTable) Window() (d *dataset.Dataset, ids []int) {
	ids = t.IDs()
	d = dataset.New(t.attrs)
	for _, id := range ids {
		cells := t.slots[t.slotOf[id]].cells
		d.MustAppend(dataset.Object{
			ID:    fmt.Sprintf("s%d", id),
			Cells: append([]dataset.Cell(nil), cells...),
		})
	}
	return d, ids
}

// mustSlot resolves a live id's slot or panics — callers own the id
// lifecycle, so an unknown id is a programming error, not input.
func (t *DynCTable) mustSlot(id int) int {
	slot, ok := t.slotOf[id]
	if !ok {
		panic(fmt.Sprintf("ctable: unknown or evicted stream id %d", id))
	}
	return slot
}

// allocSlot pops a recycled slot or extends the slot table, growing the
// index (doubling) when the bit universe is full.
func (t *DynCTable) allocSlot() int {
	if n := len(t.free); n > 0 {
		slot := t.free[n-1]
		t.free = t.free[:n-1]
		return slot
	}
	slot := len(t.slots)
	t.slots = append(t.slots, dynSlot{})
	if slot >= t.idx.Cap() {
		t.idx.Grow(2 * t.idx.Cap())
		t.dom.Grow(t.idx.Cap())
		t.rev.Grow(t.idx.Cap())
	}
	return slot
}
