package chip

import (
	"fmt"
	"math"

	"repro/internal/silicon"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// SolveReference is the steady-state solver without hoisted loop
// invariants: every fixed-point iteration resolves each core's
// frequency through its CPM guard and prices its power with its own
// leakage term. Tests compare Solve against it bit for bit.
func (m *Machine) SolveReference() (State, error) {
	var st State
	for _, c := range m.Chips {
		cs, err := m.solveChipReference(c)
		if err != nil {
			return State{}, err
		}
		st.Chips = append(st.Chips, cs)
	}
	return st, nil
}

func (m *Machine) solveChipReference(c *Chip) (ChipState, error) {
	v := silicon.VRef
	t := c.Thermal.SteadyTemp(60)

	var (
		freqs  = make([]units.MHz, len(c.Cores))
		powers = make([]units.Watt, len(c.Cores))
		total  units.Watt
	)
	for iter := 0; iter < solveMaxIter; iter++ {
		total = UncoreW
		for i, core := range c.Cores {
			f, err := m.coreFreqAtReference(core, v)
			if err != nil {
				return ChipState{}, err
			}
			freqs[i] = f
			powers[i] = corePowerReference(core.work, f, v, c.Thermal, t, core.gated)
			total += powers[i]
		}
		vNew := c.PDN.SteadyVoltage(total)
		tNew := c.Thermal.SteadyTemp(total)
		done := math.Abs(float64(vNew-v)) < solveTolV && math.Abs(float64(tNew-t)) < solveTolT
		v = units.Volt(0.5*float64(v) + 0.5*float64(vNew))
		t = units.Celsius(0.5*float64(t) + 0.5*float64(tNew))
		if done {
			break
		}
	}

	cs := ChipState{
		Label:    c.Profile.Label,
		Supply:   v,
		DCDrop:   c.PDN.VNom - v,
		Power:    total,
		TempC:    t,
		InBudget: c.Thermal.WithinEnvelope(total),
	}
	for i, core := range c.Cores {
		cs.Cores = append(cs.Cores, CoreState{
			Label:     core.Profile.Label,
			Mode:      core.mode,
			Reduction: core.Reduction(),
			Gated:     core.gated,
			Workload:  core.work.Name,
			Freq:      freqs[i],
			Power:     powers[i],
		})
	}
	return cs, nil
}

func (m *Machine) coreFreqAtReference(core *Core, v units.Volt) (units.MHz, error) {
	if core.gated {
		return 0, nil
	}
	switch core.mode {
	case ModeStatic:
		return core.pstate, nil
	case ModeATM:
		return silicon.SettleFreq(core.Monitor.SettleGuardPs(), v), nil
	default:
		return 0, fmt.Errorf("chip: core %s in unknown mode %v", core.Profile.Label, core.mode)
	}
}

func corePowerReference(w workload.Profile, f units.MHz, v units.Volt,
	tp thermal.Params, t units.Celsius, gated bool) units.Watt {
	vr := float64(v) / float64(VRefForCdyn)
	leak := float64(CoreLeakW) * tp.LeakageScale(t) * vr * vr * vr
	if gated {
		return units.Watt(leak * GatedLeakFrac)
	}
	dyn := w.CdynRel * float64(CdynMaxWPerGHz) * vr * vr * f.GHz()
	return units.Watt(leak + dyn)
}
