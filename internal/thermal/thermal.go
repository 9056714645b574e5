// Package thermal is the lumped thermal model of one processor package:
// a single thermal resistance from junction to ambient and a
// leakage-power feedback term.
//
// The paper maintains die temperature under 70 °C in all experiments
// (Sec. VII-D) and reports temperature playing only a modest role in
// timing (Sec. VII-B), so the model's job is (a) to reproduce the
// 160 W → 70 °C operating point of the stress tests and (b) to close the
// small leakage feedback loop in the chip power solver.
package thermal

import (
	"math"

	"repro/internal/units"
)

// Params describes one package's thermal path. Each chip holds its
// own: lifetime drift moves AmbientC every epoch.
type Params struct {
	// AmbientC is the inlet air temperature.
	AmbientC units.Celsius
	// ResistanceCPerW is the junction-to-ambient thermal resistance.
	// 0.28 °C/W puts a 160 W chip at 70 °C with a 25 °C inlet — the
	// paper's stress-test operating point.
	ResistanceCPerW float64
	// TjMaxC is the thermal envelope the experiments must respect.
	TjMaxC units.Celsius
}

// DefaultParams returns the package constants used for the POWER7+
// model.
func DefaultParams() Params {
	return Params{
		AmbientC:        25,
		ResistanceCPerW: 0.28,
		TjMaxC:          70,
	}
}

// SteadyTemp returns the junction temperature at sustained power P.
func (p Params) SteadyTemp(power units.Watt) units.Celsius {
	return p.AmbientC + units.Celsius(p.ResistanceCPerW*float64(power))
}

// WithinEnvelope reports whether sustained power P keeps the junction
// under TjMax.
func (p Params) WithinEnvelope(power units.Watt) bool {
	return p.SteadyTemp(power) <= p.TjMaxC
}

// MaxPower returns the sustained power that saturates the envelope.
func (p Params) MaxPower() units.Watt {
	return units.Watt(float64(p.TjMaxC-p.AmbientC) / p.ResistanceCPerW)
}

// LeakageScale returns the multiplicative leakage-power factor at
// junction temperature t relative to the leakage at ambient:
// sub-threshold leakage grows roughly exponentially, ~1.9× over a
// 25→70 °C swing at this coefficient.
func (p Params) LeakageScale(t units.Celsius) float64 {
	return math.Exp(0.0143 * float64(t-p.AmbientC))
}
