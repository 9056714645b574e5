package silicon

import "repro/internal/units"

// Hooks for the external silicon_test package, whose tests age
// profiles through internal/lifetime, a package that imports this one.

// LimitForGuard is limitForGuard.
func (c *CoreProfile) LimitForGuard(req units.Picosecond) int { return c.limitForGuard(req) }

// RequiredGuardForLimit is requiredGuardForLimit.
func (c *CoreProfile) RequiredGuardForLimit(lim int) units.Picosecond {
	return c.requiredGuardForLimit(lim)
}

// HeadroomFactor is the calibration headroom factor limitForGuard
// applies to a requirement.
func (c *CoreProfile) HeadroomFactor() float64 { return 1 + limitHeadroomSigmas*c.SigmaFrac }

// CheckTable is checkTable: an error naming the first value of the
// profile that differs from its step-table walk.
func (c *CoreProfile) CheckTable() error { return checkTable(c) }

// LimitForGuardReference is the O(taps²) search limitForGuard replaced,
// kept as its reference: for each reduction from 0 up, a guard summed
// afresh from the step table, stopping at the first one that falls
// short of the requirement.
func (c *CoreProfile) LimitForGuardReference(req units.Picosecond) int {
	need := float64(req)*(1+limitHeadroomSigmas*c.SigmaFrac) - 1e-9
	lim := 0
	for r := 0; r <= c.PresetTaps; r++ {
		if float64(c.SynthPs+walkInsertedDelay(c, c.PresetTaps-r)+ThetaPs) >= need {
			lim = r
		} else {
			break
		}
	}
	return lim
}
