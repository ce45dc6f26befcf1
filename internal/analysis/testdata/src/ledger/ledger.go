// Package ledger is golden input for the ledger-conservation analyzer:
// counter mutations are legal only inside the accounting helpers
// (methods on the ledger types) and the configured root call trees.
package ledger

// Ledger is a configured conservation type.
type Ledger struct {
	Posted  int
	Charged int
}

// add is the accounting helper: mutation inside a ledger-type method is
// always legal.
func (l *Ledger) add(d Ledger) {
	l.Posted += d.Posted
	l.Charged += d.Charged
}

// Reserve is a package-private accounting helper: only this package may
// call it.
func (l *Ledger) Reserve(n int) { l.Posted += n }

// Stats is the second configured conservation type.
type Stats struct {
	Rounds int
}

// record is its accounting helper.
func (s *Stats) record(n int) { s.Rounds += n }

// Engine owns the accounting; Tick is the configured root.
type Engine struct {
	led      Ledger
	stats    Stats
	platform Platform
}

// Tick mutates directly, through a helper in its call tree, and through
// a nested literal: all legal.
func (e *Engine) Tick() {
	e.led.Posted++
	e.step()
	func() {
		e.led.Charged++
	}()
}

// step is reachable from the root, so its mutations are in the tree.
func (e *Engine) step() {
	e.led.add(Ledger{Posted: 1, Charged: 1})
	e.led.Reserve(1) // clean: the helper's own package
	e.stats.record(1)
	post(e.platform, 1)
}

// Platform is a configured boundary: the root's tree stops at calls
// through Platform.Post.
type Platform interface {
	Post(n int)
}

// post reaches the boundary the way a helper shared by several callers
// does.
func post(p Platform, n int) { p.Post(n) }

// Hub implements Platform for another owner's books. Tick reaches Post
// only through the boundary, so Hub's code is not in Tick's tree.
type Hub struct {
	led Ledger
}

// Post is reachable from Tick only through the boundary.
func (h *Hub) Post(n int) { h.register(n) }

// register writes a counter outside every accounting tree.
func (h *Hub) register(n int) {
	h.led.Posted += n // want `write to ledger counter Ledger\.Posted outside the accounting call trees`
}

// Rogue mutates from outside the accounting tree: every site is a
// finding.
func Rogue(l *Ledger, s *Stats) {
	l.Posted++        // want `write to ledger counter Ledger\.Posted outside the accounting call trees`
	l.add(Ledger{})   // want `accounting helper Ledger\.add called outside the accounting call trees`
	s.Rounds = 7      // want `write to ledger counter Stats\.Rounds outside the accounting call trees`
	s.record(2)       // want `accounting helper Stats\.record called outside the accounting call trees`
	n := l.Posted + 1 // clean: reads are unrestricted
	_ = n
}

// Alias names the ledger type under another name, as a package that
// moved it keeps its old name.
type Alias = Ledger

// RogueAlias writes through the alias, outside the accounting tree: the
// alias is the ledger type, so the write is a finding.
func RogueAlias(l *Alias) {
	l.Charged = 3 // want `write to ledger counter Ledger\.Charged outside the accounting call trees`
}

// Snapshot reads only: value receiver, no mutation, clean anywhere.
func (l Ledger) Snapshot() Ledger { return l }
