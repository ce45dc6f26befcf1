// Package outside is golden input for the ledger analyzer's helper
// rule: a package-private accounting helper called from another
// package is a finding even inside an accounting root's call tree.
package outside

import ledger "bayescrowd/internal/analysis/testdata/src/ledger"

// Loop keeps books of its own; Tick is a configured accounting root.
type Loop struct {
	led ledger.Ledger
}

// Tick may mutate counters, but reserving belongs to the ledger's
// package.
func (l *Loop) Tick() {
	l.led.Posted++
	l.led.Reserve(1) // want `accounting helper Ledger\.Reserve called outside package ledger`
}
