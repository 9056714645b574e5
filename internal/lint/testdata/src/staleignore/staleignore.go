// Package staleignore is the fixture for the unused-directive check of
// whole-module runs: one directive that suppresses its finding, one
// that suppresses nothing, and a two-rule directive where only one of
// its rules fires.
package staleignore

import "os"

// Used: the directive suppresses the exact compare below it.
func Used(a, b float64) bool {
	//lint:ignore floatcmp fixture: exact compare is the point here
	return a == b
}

// Unused: the ordered compare below is no floatcmp finding.
func Unused(a, b float64) bool {
	//lint:ignore floatcmp fixture: stale, nothing here to suppress
	return a < b
}

// Partial: errdrop fires on the line below, detflow does not.
func Partial(f *os.File) {
	//lint:ignore errdrop,detflow fixture: only the errdrop rule is used
	_ = f.Close()
}
