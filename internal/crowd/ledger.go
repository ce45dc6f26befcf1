package crowd

// UnitMu is the price of one unit-priced task in micro-units (mu). A
// task shared by several requests splits its price exactly in integer
// mu, so the money law of Ledger.Conserved holds to the last unit.
const UnitMu = 1000

// Loss is why a request was refunded.
type Loss int

// The refund reasons.
const (
	Expired Loss = iota // the deadline passed unanswered
	Stale               // the answer's object left the window first
	Failed              // lost to a drain or a platform failure
)

// Ledger is a crowd-cost account (§6.1: every crowd task spends one unit
// of the budget B). Each request reserves a full unit and settles once:
// charged its price when answered, the rest of the unit refunded, or
// refunded in full when its work is lost. The service hub keeps one per
// query; the streaming crowd loop keeps one per run and reports its
// per-tick movement (Sub).
//
// Reserve, Charge and Refund are the only writers of the money and
// disposition fields, and a Board's settlement methods their only
// callers; the bayeslint ledger analyzer confines every write to them
// and to the accounting call trees.
type Ledger struct {
	// Posted counts requests; Shared counts those that joined a task
	// already open (the hub's dedup hits).
	Posted int `json:"requested"`
	Shared int `json:"shared"`
	// Charged counts requests settled by an answer, Refunded those
	// settled without one, by reason Expired, Stale or Failed. InFlight
	// counts requests not yet settled; a per-tick delta that settles
	// more than it posts has it negative.
	Charged  int `json:"answered"`
	Refunded int `json:"refunded"`
	Expired  int `json:"expired"`
	Stale    int `json:"stale,omitempty"`
	Failed   int `json:"failed"`
	InFlight int `json:"inFlight"`
	// ChargedMu and RefundedMu are the money movements in mu.
	ChargedMu  int64 `json:"chargedMu"`
	RefundedMu int64 `json:"refundedMu"`
	// The streaming loop's answer tallies, zero at the hub: each Arrived
	// answer is Absorbed, a charged Conflict, Stale, or Late (its task
	// had expired, which refunded it). PostFailed counts round-level
	// Post failures.
	Arrived    int `json:"arrived,omitempty"`
	Absorbed   int `json:"absorbed,omitempty"`
	Conflicts  int `json:"conflicts,omitempty"`
	Late       int `json:"late,omitempty"`
	PostFailed int `json:"postFailed,omitempty"`
}

// Reserve opens one request, holding a full unit until it settles.
func (l *Ledger) Reserve() {
	l.Posted++
	l.InFlight++
}

// Charge settles one answered request at price mu (at most UnitMu) and
// refunds the rest of its unit.
func (l *Ledger) Charge(mu int64) {
	l.Charged++
	l.InFlight--
	l.ChargedMu += mu
	l.RefundedMu += UnitMu - mu
}

// Refund settles one lost request, refunding its unit in full.
func (l *Ledger) Refund(why Loss) {
	l.Refunded++
	l.InFlight--
	l.RefundedMu += UnitMu
	switch why {
	case Expired:
		l.Expired++
	case Stale:
		l.Stale++
	case Failed:
		l.Failed++
	}
}

// Sub returns the field-wise difference l - o: the movement between two
// snapshots of one running ledger.
func (l Ledger) Sub(o Ledger) Ledger {
	return Ledger{
		Posted:     l.Posted - o.Posted,
		Shared:     l.Shared - o.Shared,
		Charged:    l.Charged - o.Charged,
		Refunded:   l.Refunded - o.Refunded,
		Expired:    l.Expired - o.Expired,
		Stale:      l.Stale - o.Stale,
		Failed:     l.Failed - o.Failed,
		InFlight:   l.InFlight - o.InFlight,
		ChargedMu:  l.ChargedMu - o.ChargedMu,
		RefundedMu: l.RefundedMu - o.RefundedMu,
		Arrived:    l.Arrived - o.Arrived,
		Absorbed:   l.Absorbed - o.Absorbed,
		Conflicts:  l.Conflicts - o.Conflicts,
		Late:       l.Late - o.Late,
		PostFailed: l.PostFailed - o.PostFailed,
	}
}

// Conserved reports whether the four conservation laws hold. They are
// linear, so they hold for a run's totals and for per-tick deltas alike:
//
//	UnitMu·Posted == ChargedMu + RefundedMu + UnitMu·InFlight   (money)
//	Posted == Charged + Refunded + InFlight                     (requests)
//	Refunded == Expired + Stale + Failed                        (refunds)
//	Arrived == Absorbed + Conflicts + Stale + Late              (answers)
func (l Ledger) Conserved() bool {
	return UnitMu*int64(l.Posted) == l.ChargedMu+l.RefundedMu+UnitMu*int64(l.InFlight) &&
		l.Posted == l.Charged+l.Refunded+l.InFlight &&
		l.Refunded == l.Expired+l.Stale+l.Failed &&
		l.Arrived == l.Absorbed+l.Conflicts+l.Stale+l.Late
}
