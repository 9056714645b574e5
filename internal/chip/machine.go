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
	"math"

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
	// LoadlineOhms is every chip's DC delivery resistance; 0 selects
	// pdn.DefaultParams' 0.45 mΩ. The loadline ablation sweeps it.
	LoadlineOhms float64
}

// New assembles a Machine over a silicon profile. Every core starts in
// ModeATM at the manufacturer preset (reduction 0), idle, at the top
// p-state — the default ATM system of Fig. 1's third bar.
func New(profile *silicon.ServerProfile, opts Options) (*Machine, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	pp := pdn.DefaultParams()
	if opts.LoadlineOhms != 0 {
		pp.LoadlineOhms = opts.LoadlineOhms
	}
	// Negated, so NaN is rejected too.
	if !(pp.LoadlineOhms > 0) || math.IsInf(pp.LoadlineOhms, 1) {
		return nil, fmt.Errorf("chip: LoadlineOhms %g, want positive and finite", pp.LoadlineOhms)
	}

	m := &Machine{profile: profile}
	for _, chp := range profile.Chips {
		c := &Chip{Profile: chp, Thermal: thermal.DefaultParams()}
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
		c.PDN = pp.CalibrateVRM(silicon.VRef, idleP)
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
	total := UncoreW
	for _, core := range c.Cores {
		f := core.Profile.DefaultFreq()
		total += CorePower(workload.Idle, f, silicon.VRef, c.Thermal, c.Thermal.SteadyTemp(60), false)
	}
	return total
}

// Profile returns the silicon the machine was built over.
func (m *Machine) Profile() *silicon.ServerProfile { return m.profile }

// Core returns the core with the given label.
func (m *Machine) Core(label string) (*Core, error) {
	_, core, err := m.find(label)
	return core, err
}

// ChipOf returns the chip containing the core with the given label.
func (m *Machine) ChipOf(label string) (*Chip, error) {
	c, _, err := m.find(label)
	return c, err
}

// find returns the core with the given label and its chip. A label of
// the form P<chip>C<core> names its slot, so find checks that slot
// first and scans every core only when the slot holds another label.
// New rejects duplicate labels, so the slot's core is the only match.
func (m *Machine) find(label string) (*Chip, *Core, error) {
	if ci, k, ok := parseCoreLabel(label); ok && ci < len(m.Chips) && k < len(m.Chips[ci].Cores) {
		if c := m.Chips[ci]; c.Cores[k].Profile.Label == label {
			return c, c.Cores[k], nil
		}
	}
	for _, c := range m.Chips {
		for _, core := range c.Cores {
			if core.Profile.Label == label {
				return c, core, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("chip: no core %q", label)
}

// parseCoreLabel reads the chip and core indices of a P<chip>C<core>
// label, each one to four decimal digits.
func parseCoreLabel(label string) (chip, core int, ok bool) {
	chip, rest, ok := parseIndex(label, 'P')
	if !ok {
		return 0, 0, false
	}
	core, rest, ok = parseIndex(rest, 'C')
	return chip, core, ok && rest == ""
}

// parseIndex reads prefix followed by one to four decimal digits from
// the front of s and returns their value and the rest of s.
func parseIndex(s string, prefix byte) (n int, rest string, ok bool) {
	if len(s) < 2 || s[0] != prefix {
		return 0, "", false
	}
	i := 1
	for ; i < len(s) && i <= 4 && '0' <= s[i] && s[i] <= '9'; i++ {
		n = 10*n + int(s[i]-'0')
	}
	return n, s[i:], i > 1
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
