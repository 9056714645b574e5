// Package dvfs implements the coarse-grained DVFS layer the POWER7+
// ships with (Sec. II: "efficiency management ... in coarse-grained
// dynamic voltage and frequency scaling (DVFS), which adjusts p-states
// from 2.1 GHz to 4.2 GHz") and the stock OS governors that drive it —
// the paper's static-margin baseline "is running the stock DVFS OS
// governors that already strive to improve system efficiency"
// (Sec. VII-D).
//
// Three classic governors are provided. They map a core's recent
// utilization to a p-state on the ladder; the ATM loop then tunes
// around whatever p-state the governor picked (or the core runs the
// p-state directly under the static margin).
package dvfs

import (
	"repro/internal/chip"
	"repro/internal/units"
)

// Governor maps utilization to a p-state.
type Governor interface {
	// Pick returns the p-state for a core whose recent utilization is
	// util ∈ [0, 1], given its current p-state.
	Pick(util float64, current units.MHz) units.MHz
}

// Performance always runs the top p-state.
type Performance struct{}

// Pick implements Governor.
func (Performance) Pick(float64, units.MHz) units.MHz { return chip.PStateMax }

// Powersave always runs the bottom p-state.
type Powersave struct{}

// Pick implements Governor.
func (Powersave) Pick(float64, units.MHz) units.MHz { return chip.PStateMin }

// Ondemand jumps to the top p-state above the up-threshold and walks
// down one ladder step at a time when utilization falls below the
// down-threshold — the classic Linux ondemand shape.
type Ondemand struct {
	// UpThreshold (default 0.80) triggers the jump to PStateMax.
	UpThreshold float64
	// DownThreshold (default 0.30) triggers a one-step descent.
	DownThreshold float64
}

// DefaultOndemand returns the stock thresholds.
func DefaultOndemand() Ondemand { return Ondemand{UpThreshold: 0.80, DownThreshold: 0.30} }

// Pick implements Governor.
func (g Ondemand) Pick(util float64, current units.MHz) units.MHz {
	up := g.UpThreshold
	if up == 0 {
		up = 0.80
	}
	down := g.DownThreshold
	if down == 0 {
		down = 0.30
	}
	switch {
	case util >= up:
		return chip.PStateMax
	case util < down:
		return stepDown(current)
	default:
		return current
	}
}

// stepDown returns the next p-state below current (or the floor).
func stepDown(current units.MHz) units.MHz {
	prev := chip.PStateMin
	for _, p := range chip.PStates {
		if p >= current {
			break
		}
		prev = p
	}
	return prev
}

// Apply sets a core's p-state from the governor's decision (the core's
// clocking mode is left untouched: a static core runs the p-state
// directly, an ATM core tunes around it).
func Apply(core *chip.Core, g Governor, util float64) error {
	return core.SetPState(g.Pick(util, core.PState()))
}
