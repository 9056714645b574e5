// Package cpm models the POWER7+ Critical Path Monitor: the programmable
// canary circuit that measures per-cycle timing margin (Sec. II, Fig. 4a).
//
// A CPM has three cascaded stages. A timing edge launched at the start of
// the cycle first crosses the *inserted delay* — a chain of inverters
// whose tap count is programmable — then the *synthetic paths* that mimic
// real pipeline circuits (AND/OR/XOR gates and wires), and finally enters
// the *inverter chain*, where the number of inverters it traverses before
// the cycle ends quantizes the leftover slack. That inverter count is the
// CPM's output, sent every cycle to the DPLL.
//
// Five CPMs sit in each core (IFU, ISU, FXU, FPU, LLC); the worst
// (smallest) of the five measurements is reported each cycle.
//
// This package is a delay-domain implementation of that pipeline: it
// consumes the silicon profile's path delays, applies voltage scaling,
// and produces quantized margin readings. The DPLL package closes the
// loop on top of it.
package cpm

import (
	"fmt"

	"repro/internal/silicon"
	"repro/internal/units"
)

// Monitor is the set of CPM sites of one core plus their current
// inserted-delay configuration. The zero value is unusable; construct
// with New.
type Monitor struct {
	core *silicon.CoreProfile
	taps int // current inserted-delay tap index
}

// New returns a Monitor for the core, configured at the manufacturer
// preset (zero reduction).
func New(core *silicon.CoreProfile) *Monitor {
	return &Monitor{core: core, taps: core.PresetTaps}
}

// Reduction returns the current reduction from the preset — the paper's
// "steps of CPM inserted delay reduction".
func (m *Monitor) Reduction() int { return m.core.PresetTaps - m.taps }

// Program sets the inserted-delay reduction (the fine-tuning knob,
// Sec. III-A). It mirrors the specialized service-processor commands on
// the real machine and rejects configurations outside the tap range.
func (m *Monitor) Program(reduction int) error {
	if reduction < 0 {
		return fmt.Errorf("cpm: negative reduction %d on %s", reduction, m.core.Label)
	}
	if reduction > m.core.MaxReduction() {
		return fmt.Errorf("cpm: reduction %d exceeds tap range (max %d) on %s",
			reduction, m.core.MaxReduction(), m.core.Label)
	}
	m.taps = m.core.PresetTaps - reduction
	return nil
}

// SiteDelay returns the full CPM path delay (inserted delay + synthetic
// path) of site i at supply voltage v.
//
//atm:hotpath
func (m *Monitor) SiteDelay(site int, v units.Volt) units.Picosecond {
	atRef := m.core.SynthPs + m.core.SiteSkewPs[site] + m.core.InsertedDelayPs(m.taps)
	return units.Picosecond(float64(atRef) * silicon.Scale(v))
}

// Reading is one cycle's margin measurement.
type Reading struct {
	// Units is the inverter count of the worst site: how many inverter
	// delays of slack remained after the CPM path completed. Negative
	// values mean the CPM path itself failed to complete within the
	// cycle (a hard margin violation).
	Units int
	// WorstSite is the index of the site that produced the reading.
	WorstSite int
	// SlackPs is the un-quantized slack of the worst site.
	SlackPs units.Picosecond
}

// Measure quantizes the timing slack left in one clock cycle of the
// given cycle time at supply voltage v. It implements the worst-of-five
// reporting: the site with the largest path delay (least slack) wins.
//
//atm:hotpath
func (m *Monitor) Measure(cycle units.Picosecond, v units.Volt) Reading {
	worst := 0
	worstDelay := units.Picosecond(-1)
	for i := range m.core.SiteSkewPs {
		if d := m.SiteDelay(i, v); d > worstDelay {
			worstDelay = d
			worst = i
		}
	}
	slack := cycle - worstDelay
	inv := units.Picosecond(float64(silicon.InvPs) * silicon.Scale(v))
	u := int(float64(slack) / float64(inv))
	//lint:ignore floatcmp exact divisibility test: u must step down unless the truncated quotient reconstructs slack bit-for-bit
	if slack < 0 && float64(slack) != float64(u)*float64(inv) {
		u-- // floor toward −∞ for negative slack
	}
	if u > MaxUnits {
		u = MaxUnits
	}
	if u < MinUnits {
		u = MinUnits
	}
	return Reading{Units: u, WorstSite: worst, SlackPs: slack}
}

// MaxUnits is the saturation value of the inverter-chain counter: the
// hardware chain has finitely many inverters, so very large slack reads
// as "all inverters traversed".
const MaxUnits = 12

// MinUnits is the negative saturation: the sticky violation indication.
const MinUnits = -4

// SettleGuardPs returns the total guarded path (CPM delay + DPLL
// threshold slack) at the current configuration, in ps at VRef. The
// DPLL settles the cycle time at exactly this × Scale(v).
func (m *Monitor) SettleGuardPs() units.Picosecond {
	g, err := m.core.GuardPs(m.Reduction())
	if err != nil {
		// Reduction is kept in range by Program, so this is unreachable.
		panic(err)
	}
	return g
}
