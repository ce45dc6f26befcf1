package crowd

import "testing"

// TestLedgerConserved walks the conservation laws through the ledger
// states the hub and the streaming loop produce, and breaks each law
// once.
func TestLedgerConserved(t *testing.T) {
	cases := []struct {
		name string
		l    Ledger
		want bool
	}{
		{"zero", Ledger{}, true},
		// Hub-shaped: fractional charges in mu.
		{"reserved", Ledger{Posted: 3, InFlight: 3}, true},
		{"answered exact", Ledger{Posted: 2, Charged: 2, ChargedMu: 2 * UnitMu}, true},
		{"split 2 ways", Ledger{Posted: 1, Charged: 1, Shared: 1, ChargedMu: UnitMu / 2, RefundedMu: UnitMu - UnitMu/2}, true},
		{"split 3 ways with remainder", Ledger{Posted: 1, Charged: 1, Shared: 1, ChargedMu: UnitMu/3 + 1, RefundedMu: UnitMu - UnitMu/3 - 1}, true},
		{"expired refund", Ledger{Posted: 1, Refunded: 1, Expired: 1, RefundedMu: UnitMu}, true},
		{"drain refund", Ledger{Posted: 2, Refunded: 2, Failed: 2, RefundedMu: 2 * UnitMu}, true},
		// Stream-shaped: whole-unit charges plus the answer tallies.
		{"stale refund", Ledger{Posted: 1, Refunded: 1, Stale: 1, RefundedMu: UnitMu, Arrived: 1}, true},
		{"late arrival", Ledger{Posted: 1, Refunded: 1, Expired: 1, RefundedMu: UnitMu, Arrived: 1, Late: 1}, true},
		{"charged conflict", Ledger{Posted: 2, Charged: 2, ChargedMu: 2 * UnitMu, Arrived: 2, Absorbed: 1, Conflicts: 1}, true},
		{"tick delta settling more than it posts", Ledger{Posted: 1, Charged: 2, Refunded: 1, Stale: 1, InFlight: -2,
			ChargedMu: 2 * UnitMu, RefundedMu: UnitMu, Arrived: 3, Absorbed: 2}, true},
		// One broken law each.
		{"lost money", Ledger{Posted: 1, Charged: 1, ChargedMu: UnitMu - 1}, false},
		{"phantom charge", Ledger{ChargedMu: UnitMu}, false},
		{"lost request", Ledger{Posted: 2, Charged: 1, ChargedMu: 2 * UnitMu}, false},
		{"refund without reason", Ledger{Posted: 1, Refunded: 1, RefundedMu: UnitMu}, false},
		{"unsorted arrival", Ledger{Posted: 1, Charged: 1, ChargedMu: UnitMu, Arrived: 2, Absorbed: 1}, false},
	}
	for _, c := range cases {
		if got := c.l.Conserved(); got != c.want {
			t.Errorf("%s: Conserved() = %v, want %v (%+v)", c.name, got, c.want, c.l)
		}
	}
}

// TestLedgerTransitions drives a ledger through every transition and
// checks that the running totals and the delta between two snapshots
// both stay conserved.
func TestLedgerTransitions(t *testing.T) {
	var l Ledger
	for i := 0; i < 5; i++ {
		l.Reserve()
	}
	start := l
	l.Charge(UnitMu)
	l.Charge(UnitMu/3 + 1)
	l.Refund(Expired)
	l.Refund(Stale)
	l.Refund(Failed)
	l.Reserve()
	want := Ledger{Posted: 6, Charged: 2, Refunded: 3, Expired: 1, Stale: 1, Failed: 1, InFlight: 1,
		ChargedMu: UnitMu + UnitMu/3 + 1, RefundedMu: 4*UnitMu - UnitMu/3 - 1}
	if l != want {
		t.Fatalf("ledger = %+v, want %+v", l, want)
	}
	d := l.Sub(start)
	if d.Posted != 1 || d.InFlight != -4 || d.Charged != 2 || d.Refunded != 3 {
		t.Fatalf("delta = %+v", d)
	}
	// Stale is a refund reason and an arrival outcome: balance the
	// arrival side before checking the laws.
	l.Arrived, l.Absorbed = 2, 1
	d.Arrived, d.Absorbed = 2, 1
	if !l.Conserved() || !d.Conserved() {
		t.Fatalf("not conserved: totals %+v, delta %+v", l, d)
	}
}
