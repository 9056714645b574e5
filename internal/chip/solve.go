package chip

import (
	"fmt"
	"math"

	"repro/internal/silicon"
	"repro/internal/units"
)

// CoreState is one core's steady operating point.
type CoreState struct {
	Label     string
	Mode      Mode
	Reduction int
	Gated     bool
	Workload  string
	Freq      units.MHz
	Power     units.Watt
}

// ChipState is one processor's steady operating point.
type ChipState struct {
	Label    string
	Supply   units.Volt
	DCDrop   units.Volt
	Power    units.Watt
	TempC    units.Celsius
	InBudget bool // within the thermal envelope
	Cores    []CoreState
}

// State is the whole machine's operating point.
type State struct {
	Chips []ChipState
}

// CoreState returns the state entry for a core label.
func (s State) CoreState(label string) (CoreState, error) {
	for _, c := range s.Chips {
		for _, cs := range c.Cores {
			if cs.Label == label {
				return cs, nil
			}
		}
	}
	return CoreState{}, fmt.Errorf("chip: no core %q in state", label)
}

// ChipState returns the state entry for a chip label.
func (s State) ChipState(label string) (ChipState, error) {
	for _, c := range s.Chips {
		if c.Label == label {
			return c, nil
		}
	}
	return ChipState{}, fmt.Errorf("chip: no chip %q in state", label)
}

// solveOpts tunes the fixed-point iteration.
const (
	solveMaxIter = 200
	solveTolV    = 1e-7 // volts
	solveTolT    = 1e-4 // °C
)

// Solve finds the steady operating point of every chip: the fixed point
// of the frequency ↔ power ↔ voltage ↔ temperature loop.
//
// ATM cores settle at the frequency their CPM guard dictates under the
// shared supply; that frequency sets dynamic power; total power sets the
// DC drop through the loadline and the junction temperature through the
// thermal resistance; both feed back into frequency (voltage) and
// leakage (temperature). The loop is a contraction at sane operating
// points and converges in a handful of iterations; a chip that has not
// met both tolerances after solveMaxIter iterations is an error.
func (m *Machine) Solve() (State, error) {
	st := State{Chips: make([]ChipState, 0, len(m.Chips))}
	for _, c := range m.Chips {
		cs, err := m.solveChip(c)
		if err != nil {
			return State{}, err
		}
		st.Chips = append(st.Chips, cs)
	}
	return st, nil
}

// coreScratch is one core's slot in the fixed point: its settle
// guard, a loop invariant, and its latest frequency and power.
type coreScratch struct {
	guard units.Picosecond
	freq  units.MHz
	power units.Watt
}

// solveChip runs the fixed point for one chip and builds its state.
func (m *Machine) solveChip(c *Chip) (ChipState, error) {
	cores := make([]coreScratch, len(c.Cores))
	v, t, total, err := m.fixedPoint(c, cores)
	if err != nil {
		return ChipState{}, err
	}
	cs := ChipState{
		Label:    c.Profile.Label,
		Supply:   v,
		DCDrop:   c.PDN.VNom - v,
		Power:    total,
		TempC:    t,
		InBudget: c.Thermal.WithinEnvelope(total),
		Cores:    make([]CoreState, len(c.Cores)),
	}
	for i, core := range c.Cores {
		cs.Cores[i] = CoreState{
			Label:     core.Profile.Label,
			Mode:      core.mode,
			Reduction: core.Reduction(),
			Gated:     core.gated,
			Workload:  core.work.Name,
			Freq:      cores[i].freq,
			Power:     cores[i].power,
		}
	}
	return cs, nil
}

// fixedPoint runs one chip's frequency ↔ power ↔ voltage ↔ temperature
// loop over cores, one scratch slot per core of c, and returns the
// chip's supply, temperature and total power; each slot ends holding
// its core's frequency and power. Machine.Solve and ChipSolver share
// it, so both read the same bits.
//
//atm:hotpath
func (m *Machine) fixedPoint(c *Chip, cores []coreScratch) (v units.Volt, t units.Celsius, total units.Watt, err error) {
	v = silicon.VRef
	t = c.Thermal.SteadyTemp(60)

	// An ATM core's settle guard depends on its CPM configuration, not
	// on V or T, so it is read once.
	for i, core := range c.Cores {
		if core.gated {
			continue
		}
		switch core.mode {
		case ModeStatic:
		case ModeATM:
			cores[i].guard = core.Monitor.SettleGuardPs()
		default:
			return 0, 0, 0, core.modeErr()
		}
	}
	var (
		stepV, stepT float64
		converged    bool
	)
	for iter := 0; iter < solveMaxIter && !converged; iter++ {
		// Every core on the chip shares the supply and the junction
		// temperature, so it shares the delay scale and the ungated
		// leakage too.
		scale := silicon.Scale(v)
		vr := float64(v) / float64(VRefForCdyn)
		leak := coreLeak(c.Thermal, t, vr)
		total = UncoreW
		for i, core := range c.Cores {
			cs := &cores[i]
			switch {
			case core.gated:
				cs.freq = 0
			case core.mode == ModeStatic:
				// Static margin: the p-state frequency is guaranteed by
				// the static guardband regardless of load.
				cs.freq = core.pstate
			default:
				// ATM tunes frequency around the p-state: at the
				// overclocking setup's full voltage the settle point
				// always sits above it, and under the undervolting
				// controller it is the quantity the frequency-target
				// constraint watches.
				cs.freq = silicon.SettleFreqAtScale(cs.guard, scale)
			}
			cs.power = corePowerAt(core.work.CdynRel, cs.freq, vr, leak, core.gated)
			total += cs.power
		}
		vNew := c.PDN.SteadyVoltage(total)
		tNew := c.Thermal.SteadyTemp(total)
		stepV, stepT = math.Abs(float64(vNew-v)), math.Abs(float64(tNew-t))
		converged = stepV < solveTolV && stepT < solveTolT
		// Light damping keeps the leakage/voltage double feedback
		// monotone even at extreme operating points.
		v = units.Volt(0.5*float64(v) + 0.5*float64(vNew))
		t = units.Celsius(0.5*float64(t) + 0.5*float64(tNew))
	}
	if !converged {
		return 0, 0, 0, c.convergeErr(stepV, stepT)
	}
	return v, t, total, nil
}

// modeErr is the fixed point's error for a core in an unknown mode.
func (core *Core) modeErr() error {
	return fmt.Errorf("chip: core %s in unknown mode %v", core.Profile.Label, core.mode)
}

// convergeErr is the fixed point's error for a chip that has not met
// both tolerances after solveMaxIter iterations.
func (c *Chip) convergeErr(stepV, stepT float64) error {
	return fmt.Errorf("chip: %s did not converge in %d iterations: last steps %g V and %g °C",
		c.Profile.Label, solveMaxIter, stepV, stepT)
}

// ChipSolver solves one chip's fixed point over per-core scratch it
// owns, so a caller that re-solves the chip as its cores' settings
// change allocates nothing per solve. Each Solve re-reads every core's
// CPM guard, mode, p-state, gating and workload, and its power and
// frequencies equal the chip's entry of Machine.Solve bit for bit.
type ChipSolver struct {
	m     *Machine
	chip  *Chip
	cores []coreScratch
}

// NewChipSolver returns a solver for c, which must be one of m's chips.
func (m *Machine) NewChipSolver(c *Chip) *ChipSolver {
	return &ChipSolver{m: m, chip: c, cores: make([]coreScratch, len(c.Cores))}
}

// Solve finds the chip's steady state under its cores' current
// settings and returns the chip's total power; Freq reads each core's
// frequency in it.
func (s *ChipSolver) Solve() (units.Watt, error) {
	_, _, total, err := s.m.fixedPoint(s.chip, s.cores)
	return total, err
}

// Freq returns the frequency of the chip's i-th core at the last Solve.
func (s *ChipSolver) Freq(i int) units.MHz { return s.cores[i].freq }
