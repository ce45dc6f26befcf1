package ctable

import (
	"errors"
	"math/rand"
	"testing"

	"bayescrowd/internal/dataset"
)

func TestKnowledgeBoundsDefault(t *testing.T) {
	k := knowledgeOver(10, 5)
	lo, hi := k.Bounds(v(0, 0))
	if lo != 0 || hi != 9 {
		t.Fatalf("Bounds = [%d,%d], want [0,9]", lo, hi)
	}
	lo, hi = k.Bounds(v(3, 1))
	if lo != 0 || hi != 4 {
		t.Fatalf("Bounds = [%d,%d], want [0,4]", lo, hi)
	}
}

func TestAbsorbConstAnswers(t *testing.T) {
	k := knowledgeOver(10)
	x := v(0, 0)
	// Task "x vs 6" answered LT: x in [0,5].
	if err := k.Absorb(LTConst(x, 6), LT); err != nil {
		t.Fatal(err)
	}
	if lo, hi := k.Bounds(x); lo != 0 || hi != 5 {
		t.Fatalf("Bounds = [%d,%d], want [0,5]", lo, hi)
	}
	// Task "x vs 2" answered GT: x in [3,5].
	if err := k.Absorb(GTConst(x, 2), GT); err != nil {
		t.Fatal(err)
	}
	if lo, hi := k.Bounds(x); lo != 3 || hi != 5 {
		t.Fatalf("Bounds = [%d,%d], want [3,5]", lo, hi)
	}
	// Equality pins it.
	if err := k.Absorb(LTConst(x, 4), EQ); err != nil {
		t.Fatal(err)
	}
	if val, ok := k.Pinned(x); !ok || val != 4 {
		t.Fatalf("Pinned = %d,%v, want 4,true", val, ok)
	}
}

func TestAbsorbConflictKeepsState(t *testing.T) {
	k := knowledgeOver(10)
	x := v(0, 0)
	if err := k.Absorb(LTConst(x, 3), LT); err != nil { // x in [0,2]
		t.Fatal(err)
	}
	err := k.Absorb(GTConst(x, 5), GT)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting answer returned %v, want ErrConflict", err)
	}
	var ce *ConflictError
	if !errors.As(err, &ce) || ce.Expr != GTConst(x, 5) || ce.Rel != GT || ce.Lo != 0 || ce.Hi != 2 {
		t.Fatalf("conflict detail = %+v, want expr/rel and surviving interval [0,2]", ce)
	}
	if k.Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", k.Conflicts)
	}
	if lo, hi := k.Bounds(x); lo != 0 || hi != 2 {
		t.Fatalf("Bounds after conflict = [%d,%d], want unchanged [0,2]", lo, hi)
	}
}

func TestAbsorbVarVarAndFlip(t *testing.T) {
	k := knowledgeOver(10)
	x, y := v(0, 0), v(1, 0)
	// Answer: x > y.
	if err := k.Absorb(GTVar(x, y), GT); err != nil {
		t.Fatal(err)
	}
	if val, decided := k.Eval(GTVar(x, y)); !decided || !val {
		t.Fatalf("Eval(x>y) = %v,%v", val, decided)
	}
	// The flipped expression y > x must be decided false.
	if val, decided := k.Eval(GTVar(y, x)); !decided || val {
		t.Fatalf("Eval(y>x) = %v,%v, want false,true", val, decided)
	}
	// Contradicting relation is rejected.
	if err := k.Absorb(GTVar(y, x), GT); !errors.Is(err, ErrConflict) {
		t.Fatalf("contradicting relation returned %v", err)
	}
	if k.Conflicts != 1 {
		t.Fatalf("Conflicts = %d, want 1", k.Conflicts)
	}
	// Re-asserting the same fact in flipped orientation is fine.
	if err := k.Absorb(GTVar(y, x), LT); err != nil {
		t.Fatalf("consistent flipped relation rejected: %v", err)
	}
}

// TestAbsorbVarVarAgainstIntervals checks that a var-vs-var answer the
// two intervals rule out is a conflict: Eval reads a stored relation
// before the intervals, so storing it would turn an expression the
// intervals decided the other way.
func TestAbsorbVarVarAgainstIntervals(t *testing.T) {
	k := knowledgeOver(10)
	x, y := v(0, 0), v(1, 0)
	for _, a := range []struct {
		e   Expr
		rel Rel
	}{{GTConst(x, 2), GT}, {LTConst(x, 5), LT}, {LTConst(y, 2), LT}} { // x in [3,4], y in [0,1]
		if err := k.Absorb(a.e, a.rel); err != nil {
			t.Fatal(err)
		}
	}
	for i, rel := range []Rel{LT, EQ} {
		err := k.Absorb(GTVar(x, y), rel)
		var ce *ConflictError
		if !errors.As(err, &ce) || ce.Related || ce.Lo != 3 || ce.Hi != 4 || ce.YLo != 0 || ce.YHi != 1 {
			t.Fatalf("x %v y against [3,4] and [0,1] returned %v (%+v), want an interval conflict", rel, err, ce)
		}
		if k.Conflicts != i+1 {
			t.Fatalf("Conflicts = %d, want %d", k.Conflicts, i+1)
		}
	}
	if val, decided := k.Eval(GTVar(x, y)); !decided || !val {
		t.Fatalf("Eval(x>y) = %v,%v after the refused answers, want true,true", val, decided)
	}
	if err := k.Absorb(GTVar(y, x), LT); err != nil {
		t.Fatalf("answer the intervals allow rejected: %v", err)
	}
}

func TestEvalConstExpr(t *testing.T) {
	k := knowledgeOver(10)
	x := v(0, 0)
	if err := k.Absorb(LTConst(x, 4), LT); err != nil { // x in [0,3]
		t.Fatal(err)
	}
	cases := []struct {
		e            Expr
		val, decided bool
	}{
		{LTConst(x, 4), true, true},
		{LTConst(x, 5), true, true},
		{LTConst(x, 3), false, false}, // x could be 0..3
		{GTConst(x, 3), false, true},
		{GTConst(x, 2), false, false},
		{LTConst(v(5, 0), 4), false, false}, // unconstrained var
	}
	for _, tc := range cases {
		val, decided := k.Eval(tc.e)
		if val != tc.val || decided != tc.decided {
			t.Errorf("Eval(%v) = %v,%v, want %v,%v", tc.e, val, decided, tc.val, tc.decided)
		}
	}
}

func TestEvalVarVarByIntervals(t *testing.T) {
	k := knowledgeOver(10)
	x, y := v(0, 0), v(1, 0)
	if err := k.Absorb(GTConst(x, 6), GT); err != nil { // x in [7,9]
		t.Fatal(err)
	}
	if err := k.Absorb(LTConst(y, 5), LT); err != nil { // y in [0,4]
		t.Fatal(err)
	}
	// Disjoint intervals decide x > y without a direct comparison task —
	// the "inference" that saves BayesCrowd crowd tasks.
	if val, decided := k.Eval(GTVar(x, y)); !decided || !val {
		t.Fatalf("Eval(x>y) = %v,%v, want true,true", val, decided)
	}
	// And y > x is decided false: hi(y)=4 <= lo(x)=7.
	if val, decided := k.Eval(GTVar(y, x)); !decided || val {
		t.Fatalf("Eval(y>x) = %v,%v, want false,true", val, decided)
	}
}

func TestEvalVarVarTouchingIntervals(t *testing.T) {
	k := knowledgeOver(10)
	x, y := v(0, 0), v(1, 0)
	// x in [0,4], y in [4,9]: x > y impossible (x <= 4 <= y), decided false.
	if err := k.Absorb(LTConst(x, 5), LT); err != nil {
		t.Fatal(err)
	}
	if err := k.Absorb(GTConst(y, 3), GT); err != nil {
		t.Fatal(err)
	}
	if val, decided := k.Eval(GTVar(x, y)); !decided || val {
		t.Fatalf("Eval(x>y) = %v,%v, want false,true", val, decided)
	}
	// y > x is NOT decided: both could be 4.
	if _, decided := k.Eval(GTVar(y, x)); decided {
		t.Fatal("Eval(y>x) decided despite possible tie")
	}
}

func TestTrueRel(t *testing.T) {
	truth := dataset.FromRows(
		[]dataset.Attribute{{Name: "a", Levels: 10}, {Name: "b", Levels: 10}},
		[][]int{{3, 7}, {5, 7}},
	)
	cases := []struct {
		e    Expr
		want Rel
	}{
		{LTConst(v(0, 0), 5), LT}, // 3 vs 5
		{LTConst(v(0, 0), 3), EQ},
		{GTConst(v(1, 0), 4), GT},         // 5 vs 4
		{GTVar(v(0, 0), v(1, 0)), LT},     // 3 vs 5
		{GTVar(v(0, 1), v(1, 1)), EQ},     // 7 vs 7
		{GTVar(Var{1, 0}, Var{0, 0}), GT}, // 5 vs 3
	}
	for _, tc := range cases {
		if got := TrueRel(truth, tc.e); got != tc.want {
			t.Errorf("TrueRel(%v) = %v, want %v", tc.e, got, tc.want)
		}
	}
}

func TestRelString(t *testing.T) {
	if LT.String() != "<" || EQ.String() != "=" || GT.String() != ">" {
		t.Fatal("Rel.String broken")
	}
}

func TestAbsorbAfterForgetReturnsTypedError(t *testing.T) {
	k := knowledgeOver(10, 10)
	x, y := v(0, 0), v(1, 0)
	if err := k.Absorb(LTConst(x, 6), LT); err != nil {
		t.Fatal(err)
	}
	k.Forget(x)

	// The retraction is permanent: any answer mentioning x — on either
	// side of the expression — is rejected with the typed error, not
	// silently resurrected.
	for _, e := range []Expr{LTConst(x, 3), GTConst(x, 2), GTVar(x, y), GTVar(y, x)} {
		err := k.Absorb(e, GT)
		if err == nil {
			t.Fatalf("Absorb(%v) after Forget succeeded", e)
		}
		if !errors.Is(err, ErrForgotten) {
			t.Fatalf("Absorb(%v) = %v, want ErrForgotten", e, err)
		}
		var fe *ForgottenError
		if !errors.As(err, &fe) || fe.Var != x {
			t.Fatalf("Absorb(%v) error names %+v, want variable %v", e, fe, x)
		}
	}
	if lo, hi := k.Bounds(x); lo != 0 || hi != 9 {
		t.Fatalf("rejected answers narrowed the forgotten interval to [%d,%d]", lo, hi)
	}
	if k.Conflicts != 0 {
		t.Fatalf("stale answers counted as conflicts: %d", k.Conflicts)
	}

	// Unrelated variables absorb normally.
	if err := k.Absorb(LTConst(y, 5), LT); err != nil {
		t.Fatalf("Absorb on a live variable after Forget: %v", err)
	}

	// The guard holds under NoInference too.
	ni := knowledgeOver(10)
	ni.NoInference = true
	if err := ni.Absorb(LTConst(v(0, 0), 5), LT); err != nil {
		t.Fatal(err)
	}
	ni.Forget(v(0, 0))
	if err := ni.Absorb(LTConst(v(0, 0), 5), LT); !errors.Is(err, ErrForgotten) {
		t.Fatalf("NoInference Absorb after Forget = %v, want ErrForgotten", err)
	}
}

func TestKnowledgeEmpty(t *testing.T) {
	k := knowledgeOver(10, 10)
	if !k.Empty() {
		t.Fatal("fresh knowledge is not Empty")
	}
	if err := k.Absorb(LTConst(v(0, 0), 6), LT); err != nil {
		t.Fatal(err)
	}
	if k.Empty() {
		t.Fatal("Empty after an absorbed interval")
	}
	k.Forget(v(0, 0))
	if !k.Empty() {
		t.Fatal("tombstones alone must not make knowledge non-Empty")
	}
	if err := k.Absorb(GTVar(v(1, 0), v(2, 0)), GT); err != nil {
		t.Fatal(err)
	}
	if k.Empty() {
		t.Fatal("Empty after a stored relation")
	}
}

// TestForgetAbsorbForgetProperty drives random Forget→Absorb→Forget
// sequences and checks the guard's invariants throughout: an absorb
// mentioning any ever-forgotten variable always fails with ErrForgotten
// and changes nothing, while absorbs over live variables keep working,
// whatever interleaving of forgets and answers came before.
func TestForgetAbsorbForgetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		k := knowledgeOver(8, 8)
		forgotten := map[Var]bool{}
		vars := []Var{v(0, 0), v(0, 1), v(1, 0), v(1, 1), v(2, 0), v(2, 1)}
		for step := 0; step < 40; step++ {
			if rng.Intn(4) == 0 { // forget a random variable
				fv := vars[rng.Intn(len(vars))]
				k.Forget(fv)
				forgotten[fv] = true
				continue
			}
			x := vars[rng.Intn(len(vars))]
			var e Expr
			if rng.Intn(2) == 0 {
				e = GTConst(x, 1+rng.Intn(5))
			} else {
				y := vars[rng.Intn(len(vars))]
				if y == x {
					continue
				}
				e = GTVar(x, y)
			}
			rel := []Rel{LT, EQ, GT}[rng.Intn(3)]
			err := k.Absorb(e, rel)
			stale := forgotten[e.X] || (e.Kind == VarGTVar && forgotten[e.Y])
			if stale {
				if !errors.Is(err, ErrForgotten) {
					t.Fatalf("trial %d step %d: Absorb(%v) on forgotten var = %v, want ErrForgotten", trial, step, e, err)
				}
				continue
			}
			if errors.Is(err, ErrForgotten) {
				t.Fatalf("trial %d step %d: Absorb(%v) rejected but no variable was forgotten", trial, step, e)
			}
			// Live-variable absorbs keep working: the only acceptable
			// failure is a genuine conflict with earlier live knowledge.
			if err != nil && !errors.Is(err, ErrConflict) {
				t.Fatalf("trial %d step %d: Absorb(%v,%v) on live vars = %v", trial, step, e, rel, err)
			}
		}
		// Post-condition: every forgotten variable reads as a full
		// domain, and the tombstone survives any interleaving.
		for fv := range forgotten {
			if lo, hi := k.Bounds(fv); lo != 0 || hi != 7 {
				t.Fatalf("trial %d: forgotten %v has bounds [%d,%d]", trial, fv, lo, hi)
			}
			if err := k.Absorb(GTConst(fv, 3), GT); !errors.Is(err, ErrForgotten) {
				t.Fatalf("trial %d: final Absorb on forgotten %v = %v", trial, fv, err)
			}
		}
	}
}

// TestKnowledgeSlide renumbers a window the way a stream eviction does —
// the oldest object's variables retire and every survivor's id falls by
// their count — and checks that Slide keeps each interval with its
// variable, leaves the retired and the arriving variables at the full
// domain, and keeps Empty's count.
func TestKnowledgeSlide(t *testing.T) {
	window := []Var{v(0, 0), v(0, 1), v(1, 1), v(2, 0)}
	ids := NewVarIDs(window)
	k := NewKnowledge(dataset.New([]dataset.Attribute{{Name: "a", Levels: 6}, {Name: "b", Levels: 6}}), ids)
	for _, a := range []struct {
		e   Expr
		rel Rel
	}{{LTConst(v(0, 1), 3), LT}, {GTConst(v(1, 1), 2), GT}, {LTConst(v(2, 0), 2), LT}} {
		if err := k.Absorb(a.e, a.rel); err != nil {
			t.Fatal(err)
		}
	}
	window = append(window[2:], v(3, 0))
	k.Slide(2)
	ids.Renumber(window)
	for _, want := range []struct {
		x      Var
		lo, hi int
	}{{v(0, 1), 0, 5}, {v(1, 1), 3, 5}, {v(2, 0), 0, 1}, {v(3, 0), 0, 5}} {
		if lo, hi := k.Bounds(want.x); lo != want.lo || hi != want.hi {
			t.Fatalf("Bounds(%v) = [%d,%d] after the slide, want [%d,%d]", want.x, lo, hi, want.lo, want.hi)
		}
	}
	if err := k.Absorb(GTConst(v(3, 0), 4), GT); err != nil {
		t.Fatal(err)
	}
	if lo, hi := k.Bounds(v(3, 0)); lo != 5 || hi != 5 {
		t.Fatalf("arrival Bounds = [%d,%d], want [5,5]", lo, hi)
	}
	k.Slide(len(window))
	ids.Renumber(nil)
	if !k.Empty() {
		t.Fatal("knowledge not Empty after every interval slid out")
	}
}
