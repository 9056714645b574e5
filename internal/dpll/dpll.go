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
	"fmt"

	"repro/internal/cpm"
	"repro/internal/units"
)

// Config are the loop gains. Defaults follow DefaultConfig.
type Config struct {
	// ThetaUnits is the margin threshold the loop regulates to. It must
	// match the silicon Params' ThetaUnits for the analytic settle
	// point to be exact.
	ThetaUnits int
	// UpSlewMHz is the frequency increment applied per control interval
	// while margin exceeds the threshold.
	UpSlewMHz float64
	// DownSlewMHz is the decrement applied while margin is positive but
	// below the threshold.
	DownSlewMHz float64
	// EmergencyFactor scales the decrement on a violation (margin < 0).
	EmergencyFactor float64
	// FMin and FMax bound the slew range.
	FMin, FMax units.MHz
}

// DefaultConfig returns the loop gains used throughout the repository.
func DefaultConfig(theta int, fmax units.MHz) Config {
	return Config{
		ThetaUnits:      theta,
		UpSlewMHz:       8,
		DownSlewMHz:     40,
		EmergencyFactor: 6,
		FMin:            1000,
		FMax:            fmax,
	}
}

// Loop is the mutable control-loop state of one core.
type Loop struct {
	cfg     Config
	monitor *cpm.Monitor
	freq    units.MHz
}

// New returns a loop regulating the monitor, starting at the given
// frequency.
func New(monitor *cpm.Monitor, cfg Config, start units.MHz) (*Loop, error) {
	if cfg.ThetaUnits < 0 {
		return nil, fmt.Errorf("dpll: negative threshold %d", cfg.ThetaUnits)
	}
	if cfg.FMin <= 0 || cfg.FMax <= cfg.FMin {
		return nil, fmt.Errorf("dpll: bad frequency bounds [%v, %v]", cfg.FMin, cfg.FMax)
	}
	if cfg.UpSlewMHz <= 0 || cfg.DownSlewMHz <= 0 || cfg.EmergencyFactor < 1 {
		return nil, fmt.Errorf("dpll: non-positive slew gains")
	}
	return &Loop{cfg: cfg, monitor: monitor, freq: start.Clamp(cfg.FMin, cfg.FMax)}, nil
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

	p := l.monitor.Core().Params()
	target := float64(p.ThetaPs()) * p.Scale(v) // desired slack, ps
	errPs := float64(r.SlackPs) - target
	// A slack error of e ps moves the settle frequency by ≈ f²·e·1e−6 MHz.
	needMHz := float64(l.freq) * float64(l.freq) * errPs * 1e-6

	switch {
	case r.Units < 0:
		l.freq -= units.MHz(l.cfg.DownSlewMHz * l.cfg.EmergencyFactor)
	case needMHz < 0:
		step := -needMHz
		if step > l.cfg.DownSlewMHz {
			step = l.cfg.DownSlewMHz
		}
		l.freq -= units.MHz(step)
	default:
		step := needMHz
		if step > l.cfg.UpSlewMHz {
			step = l.cfg.UpSlewMHz
		}
		l.freq += units.MHz(step)
	}
	l.freq = l.freq.Clamp(l.cfg.FMin, l.cfg.FMax)
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
	p := l.monitor.Core().Params()
	return p.SettleFreq(l.monitor.SettleGuardPs(), v).Clamp(l.cfg.FMin, l.cfg.FMax)
}
