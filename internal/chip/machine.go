// Package chip assembles the full platform model: a server of POWER7+
// processors whose cores each carry a CPM monitor and an ATM control
// loop, sharing a per-chip power-delivery network and thermal path.
//
// The package provides the two execution models the experiments need:
//
//   - a steady-state solver (solve.go) that finds the fixed point of the
//     frequency ↔ power ↔ voltage loop — the operating point every
//     table and figure of the paper is measured at;
//   - a stochastic trial runner (trial.go) that decides whether a
//     workload executes correctly at a CPM configuration, reproducing
//     the failure taxonomy of Sec. III-B (crash, abnormal exit, SDC);
//   - a transient stepper (transient.go) that runs the per-interval
//     DPLL loops against PDN noise for demonstration and validation.
package chip

import (
	"fmt"

	"repro/internal/cpm"
	"repro/internal/pdn"
	"repro/internal/silicon"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// Mode selects how a core's clock is driven.
type Mode int

// Core clocking modes.
const (
	// ModeStatic pins the core at its DVFS p-state frequency with the
	// full static timing margin (ATM off — the paper's baseline).
	ModeStatic Mode = iota
	// ModeATM lets the per-core control loop convert reclaimed margin
	// into frequency above the p-state (undervolting disabled, Sec. II).
	ModeATM
)

func (m Mode) String() string {
	switch m {
	case ModeStatic:
		return "static"
	case ModeATM:
		return "atm"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// PState is the coarse DVFS ladder of the POWER7+ (Sec. II: 2.1 GHz to
// 4.2 GHz).
var PStates = []units.MHz{2100, 2500, 2900, 3300, 3700, 4000, 4200}

// PStateMin and PStateMax bound the ladder.
var (
	PStateMin = PStates[0]
	PStateMax = PStates[len(PStates)-1]
)

// NearestPState returns the highest p-state not exceeding f (or the
// lowest p-state when f is below the ladder).
func NearestPState(f units.MHz) units.MHz {
	best := PStateMin
	for _, p := range PStates {
		if p <= f && p > best {
			best = p
		}
	}
	return best
}

// Core is the runtime state of one core.
type Core struct {
	Profile *silicon.CoreProfile
	Monitor *cpm.Monitor

	mode   Mode
	pstate units.MHz
	gated  bool
	work   workload.Profile
}

// Chip is one processor: eight cores on a shared rail.
type Chip struct {
	Profile *silicon.ChipProfile
	PDN     pdn.Params
	Thermal thermal.Params
	Cores   []*Core
}

// Machine is the two-socket server.
type Machine struct {
	profile *silicon.ServerProfile
	power   PowerModel
	Chips   []*Chip

	// trialFault, when non-nil, is consulted after every trial so a
	// fault injector can emulate a flaky test harness (see trial.go).
	trialFault TrialFault

	// trialObserver, when non-nil, is notified after every retry-wrapped
	// trial so the observability plane can count trials and transient
	// retries without the chip package importing internal/obs.
	trialObserver TrialObserver
}

// SetTrialFault arms (or, with nil, disarms) the trial fault hook.
func (m *Machine) SetTrialFault(f TrialFault) { m.trialFault = f }

// SetTrialObserver installs (or, with nil, removes) the trial observer
// notified by the retry-wrapped trials (see TrialObserver). The observer must
// not run trials itself and must not draw randomness — it sees
// outcomes, it does not influence them.
func (m *Machine) SetTrialObserver(o TrialObserver) { m.trialObserver = o }

// Options configures machine construction.
type Options struct {
	// PDN overrides the power-delivery constants (DefaultParams when
	// zero-valued).
	PDN pdn.Params
	// Thermal overrides the thermal constants.
	Thermal thermal.Params
	// Power overrides the power-model constants.
	Power PowerModel
}

// New assembles a Machine over a silicon profile. Every core starts in
// ModeATM at the manufacturer preset (reduction 0), idle, at the top
// p-state — the default ATM system of Fig. 1's third bar.
func New(profile *silicon.ServerProfile, opts Options) (*Machine, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	pp := opts.PDN
	if pp == (pdn.Params{}) {
		pp = pdn.DefaultParams()
	}
	tp := opts.Thermal
	if tp == (thermal.Params{}) {
		tp = thermal.DefaultParams()
	}
	pm := opts.Power
	if pm == (PowerModel{}) {
		pm = DefaultPowerModel()
	}
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}

	m := &Machine{profile: profile, power: pm}
	for _, chp := range profile.Chips {
		c := &Chip{Profile: chp, Thermal: tp}
		for _, cp := range chp.Cores {
			c.Cores = append(c.Cores, &Core{
				Profile: cp,
				Monitor: cpm.New(cp),
				mode:    ModeATM,
				pstate:  PStateMax,
				work:    workload.Idle,
			})
		}
		// Calibrate each chip's VRM so the on-die supply sits at VRef
		// under the idle power draw (the paper's 1.25 V / 4.2 GHz
		// p-state anchor).
		idleP := m.idlePowerEstimate(c)
		c.PDN = pp.CalibrateVRM(profile.Params().VRef, idleP)
		m.Chips = append(m.Chips, c)
	}
	return m, nil
}

// NewReference assembles a Machine over the paper-calibrated silicon.
func NewReference() *Machine {
	m, err := New(silicon.Reference(), Options{})
	if err != nil {
		panic(fmt.Sprintf("chip: reference machine failed to build: %v", err))
	}
	return m
}

// idlePowerEstimate computes the chip's power with every core idle in
// default ATM at VRef — the VRM calibration anchor.
func (m *Machine) idlePowerEstimate(c *Chip) units.Watt {
	p := m.profile.Params()
	var total units.Watt = m.power.UncoreW
	for _, core := range c.Cores {
		f := core.Profile.DefaultFreq()
		total += m.power.CorePower(workload.Idle, f, p.VRef, c.Thermal, c.Thermal.SteadyTemp(60), false)
	}
	return total
}

// Profile returns the silicon the machine was built over.
func (m *Machine) Profile() *silicon.ServerProfile { return m.profile }

// Power returns the machine's power-model constants.
func (m *Machine) Power() PowerModel { return m.power }

// Core returns the core with the given label.
func (m *Machine) Core(label string) (*Core, error) {
	for _, c := range m.Chips {
		for _, core := range c.Cores {
			if core.Profile.Label == label {
				return core, nil
			}
		}
	}
	return nil, fmt.Errorf("chip: no core %q", label)
}

// ChipOf returns the chip containing the core with the given label.
func (m *Machine) ChipOf(label string) (*Chip, error) {
	for _, c := range m.Chips {
		for _, core := range c.Cores {
			if core.Profile.Label == label {
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("chip: no core %q", label)
}

// AllCores returns every core in (chip, core) order.
func (m *Machine) AllCores() []*Core {
	var out []*Core
	for _, c := range m.Chips {
		out = append(out, c.Cores...)
	}
	return out
}

// ProgramCPM sets a core's inserted-delay reduction — the fine-tuning
// knob, equivalent to the specialized service-processor commands.
func (m *Machine) ProgramCPM(label string, reduction int) error {
	core, err := m.Core(label)
	if err != nil {
		return err
	}
	return core.Monitor.Program(reduction)
}

// Reduction returns a core's current CPM reduction.
func (c *Core) Reduction() int { return c.Monitor.Reduction() }

// Mode returns the core's clocking mode.
func (c *Core) Mode() Mode { return c.mode }

// SetMode switches between static-margin and ATM clocking.
func (c *Core) SetMode(mode Mode) { c.mode = mode }

// PState returns the core's DVFS p-state frequency.
func (c *Core) PState() units.MHz { return c.pstate }

// SetPState pins the core's DVFS p-state. The value must be on the
// ladder.
func (c *Core) SetPState(f units.MHz) error {
	for _, p := range PStates {
		//lint:ignore floatcmp ladder membership: a requested p-state must be bit-identical to a table entry, not merely close to one
		if p == f {
			c.pstate = f
			return nil
		}
	}
	return fmt.Errorf("chip: %v is not a POWER7+ p-state", f)
}

// Gated reports whether the core is power-gated.
func (c *Core) Gated() bool { return c.gated }

// SetGated power-gates or wakes the core.
func (c *Core) SetGated(g bool) { c.gated = g }

// Workload returns the profile currently scheduled on the core.
func (c *Core) Workload() workload.Profile { return c.work }

// SetWorkload schedules a workload profile on the core.
func (c *Core) SetWorkload(w workload.Profile) { c.work = w }

// ResetAll returns every core to the default-ATM idle state: preset
// CPM configuration, ATM mode, top p-state, ungated, idle workload.
func (m *Machine) ResetAll() {
	for _, core := range m.AllCores() {
		if err := core.Monitor.Program(0); err != nil {
			panic(err) // reduction 0 is always legal
		}
		core.mode = ModeATM
		core.pstate = PStateMax
		core.gated = false
		core.work = workload.Idle
	}
}
