package ctable

import (
	"math/rand"
	"testing"
)

// gridIDs numbers every variable of objects 0..objs-1 over attrs
// attributes, for knowledge that tests absorb into freely.
func gridIDs(objs, attrs int) *VarIDs {
	var vars []Var
	for o := 0; o < objs; o++ {
		for a := 0; a < attrs; a++ {
			vars = append(vars, Var{Obj: o, Attr: a})
		}
	}
	return NewVarIDs(vars)
}

// randomMask draws the missing cells of a random dataset shape. Object 0
// has no missing cell and object 1 has every cell missing; attribute
// counts reach past 64 so that masks span several words.
func randomMask(rng *rand.Rand) (objects, attrs int, missing []Var) {
	objects, attrs = 2+rng.Intn(40), 1+rng.Intn(140)
	for o := 1; o < objects; o++ {
		for a := 0; a < attrs; a++ {
			if o == 1 || rng.Intn(4) == 0 {
				missing = append(missing, Var{Obj: o, Attr: a})
			}
		}
	}
	rng.Shuffle(len(missing), func(i, j int) { missing[i], missing[j] = missing[j], missing[i] })
	return objects, attrs, missing
}

// TestVarIDsOrder checks the invariant bit-identity on the id path rests
// on: ids are dense, and id(a) < id(b) exactly when (a.Obj, a.Attr) <
// (b.Obj, b.Attr), whatever order the variables were listed in.
// Variables outside the set have no id. The same set moved far from
// object 0, as a stream window's is, gets the same ids from a table
// whose rows span its objects only, whether built fresh or renumbered
// in reused buffers.
func TestVarIDsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	reused := NewVarIDs(nil)
	for trial := 0; trial < 200; trial++ {
		objects, attrs, missing := randomMask(rng)
		ids := NewVarIDs(append(missing, missing[:len(missing)/3]...))
		if ids.Len() != len(missing) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, ids.Len(), len(missing))
		}
		numbered := map[Var]bool{}
		used := make([]bool, len(missing))
		for _, x := range missing {
			numbered[x] = true
			id, ok := ids.ID(x)
			if !ok || id < 0 || int(id) >= len(missing) || used[id] {
				t.Fatalf("trial %d: ID(%v) = %d, %v: not a fresh id below %d", trial, x, id, ok, len(missing))
			}
			used[id] = true
		}
		for i := 0; i < 400; i++ {
			a, b := missing[rng.Intn(len(missing))], missing[rng.Intn(len(missing))]
			ia, _ := ids.ID(a)
			ib, _ := ids.ID(b)
			if less := a.Obj < b.Obj || a.Obj == b.Obj && a.Attr < b.Attr; (ia < ib) != less {
				t.Fatalf("trial %d: ids %d, %d for %v, %v break (Obj, Attr) order", trial, ia, ib, a, b)
			}
		}
		for o := -1; o <= objects; o++ {
			for a := -1; a <= attrs+64; a++ {
				x := Var{Obj: o, Attr: a}
				if _, ok := ids.ID(x); ok != numbered[x] {
					t.Fatalf("trial %d: ID(%v) reports %v, numbered %v", trial, x, ok, numbered[x])
				}
			}
		}

		const far = 5_000_000
		moved := make([]Var, len(missing))
		for i, x := range missing {
			moved[i] = Var{Obj: x.Obj + far, Attr: x.Attr}
		}
		fresh := NewVarIDs(moved)
		reused.Renumber(moved)
		// Object 1 is the smallest with a missing cell.
		last := 0
		for _, x := range missing {
			last = max(last, x.Obj)
		}
		if span := last * fresh.words; len(fresh.mask) != span || len(reused.mask) != span {
			t.Fatalf("trial %d: masks of %d and %d words for %d objects", trial, len(fresh.mask), len(reused.mask), last)
		}
		for o := -1; o <= objects; o++ {
			for a := -1; a <= attrs; a++ {
				want, wok := ids.ID(Var{Obj: o, Attr: a})
				for _, tbl := range []*VarIDs{fresh, reused} {
					if id, ok := tbl.ID(Var{Obj: o + far, Attr: a}); id != want || ok != wok {
						t.Fatalf("trial %d: moved ID(%v) = %d, %v, want %d, %v", trial, Var{Obj: o, Attr: a}, id, ok, want, wok)
					}
				}
			}
		}
	}
	var none *VarIDs
	if _, ok := none.ID(Var{}); ok || none.Len() != 0 {
		t.Fatal("a nil table numbers something")
	}
}
