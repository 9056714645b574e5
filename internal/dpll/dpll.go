// Package dpll implements the per-core adaptive frequency control loop
// (Sec. II): a digital phase-locked loop that consumes the CPM's
// per-cycle margin reading and slews the core clock so the measured
// slack settles at a threshold.
//
// The loop has three regimes:
//
//   - margin below zero (violation): the clock is gated for a cycle and
//     the frequency is pulled down hard — the emergency response to a
//     fast di/dt event;
//   - margin below the threshold: fast downward slew;
//   - margin above the threshold: slow upward slew (asymmetric response,
//     as in the real hardware, so the loop reacts to danger quickly and
//     recovers conservatively).
//
// The loop's steady state is analytically the silicon profile's
// GuardPs-derived frequency; the transient stepper here exists so tests
// and examples can watch the loop respond to voltage noise and verify
// the analytic shortcut the rest of the repository uses.
package dpll

import (
	"repro/internal/cpm"
	"repro/internal/silicon"
	"repro/internal/units"
)

// The loop's slew response and floor are fixed hardware (Sec. II); its
// threshold is silicon.ThetaPs and its ceiling silicon.FMaxHW. The gains
// are typed so that every product and comparison rounds as it would on a
// float64 variable.
const (
	// upSlewMHz is the largest increment per control interval while the
	// margin exceeds the threshold.
	upSlewMHz float64 = 8
	// downSlewMHz is the largest decrement per control interval while
	// the margin is non-negative but below the threshold.
	downSlewMHz float64 = 40
	// emergencyFactor scales downSlewMHz on a violation (margin < 0).
	emergencyFactor float64 = 6
	// fMin is the bottom of the slew range.
	fMin units.MHz = 1000
)

// Loop is the mutable control-loop state of one core.
type Loop struct {
	monitor *cpm.Monitor
	freq    units.MHz
}

// New returns a loop regulating the monitor, starting at the given
// frequency clamped to [fMin, FMaxHW].
func New(monitor *cpm.Monitor, start units.MHz) *Loop {
	return &Loop{monitor: monitor, freq: start.Clamp(fMin, silicon.FMaxHW)}
}

// Freq returns the loop's current output frequency.
func (l *Loop) Freq() units.MHz { return l.freq }

// Step advances the loop by one control interval at supply voltage v and
// returns the margin reading it acted on.
//
// The POWER7+ CPM is pulse-shaped for sub-inverter resolution (Drake et
// al., ISLPED'13), so the loop regulates on the un-quantized slack: the
// error between measured slack and the θ-unit target is converted to a
// frequency correction and applied with asymmetric slew limits. The
// quantized reading still drives the emergency (clock-gating) response.
//
//atm:hotpath
func (l *Loop) Step(v units.Volt) cpm.Reading {
	r := l.monitor.Measure(l.freq.CycleTime(), v)

	target := float64(silicon.ThetaPs) * silicon.Scale(v) // desired slack, ps
	errPs := float64(r.SlackPs) - target
	// A slack error of e ps moves the settle frequency by ≈ f²·e·1e−6 MHz.
	needMHz := float64(l.freq) * float64(l.freq) * errPs * 1e-6

	switch {
	case r.Units < 0:
		l.freq -= units.MHz(downSlewMHz * emergencyFactor)
	case needMHz < 0:
		step := -needMHz
		if step > downSlewMHz {
			step = downSlewMHz
		}
		l.freq -= units.MHz(step)
	default:
		step := needMHz
		if step > upSlewMHz {
			step = upSlewMHz
		}
		l.freq += units.MHz(step)
	}
	l.freq = l.freq.Clamp(fMin, silicon.FMaxHW)
	return r
}

// SettlePoint returns the frequency the loop converges to at supply v —
// the analytic fixed point: cycle time = (CPM guard) × Scale(v). The
// rest of the repository uses this shortcut; TestConvergesFromBelow and
// TestConvergesFromAbove verify the transient loop settles within 2 MHz
// of it.
//
//lint:ignore deadcode reference model: the dpll tests compare the stepped loop against it
func (l *Loop) SettlePoint(v units.Volt) units.MHz {
	return silicon.SettleFreq(l.monitor.SettleGuardPs(), v).Clamp(fMin, silicon.FMaxHW)
}
