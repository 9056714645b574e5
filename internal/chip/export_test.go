package chip

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// TrialRecord is the observer's record of a trial of w on core that
// ended in f, as RunCoreTrialRetry builds it.
func TrialRecord(core *Core, w *workload.Profile, f FailureKind) TrialResult {
	return trialRecord(core, w, f)
}

// runTrialReference is the trial as it ran when every trial returned its
// whole record: the record is filled in up front, and the failure draw
// sets its Failure and, for an SDC, its Detected field. Tests hold the
// kind-returning entry points and the observer's record to it.
func (m *Machine) runTrialReference(core *Core, w *workload.Profile, src *rng.Source) (TrialResult, error) {
	res := TrialResult{
		Core:      core.Profile.Label,
		Workload:  w.Name,
		Reduction: core.Reduction(),
		Detected:  true,
	}
	if core.mode == ModeATM {
		ok, err := core.Profile.SurvivesTrial(res.Reduction, w.StressScore, src)
		if err != nil {
			return TrialResult{}, err
		}
		if !ok {
			switch u := src.Float64(); {
			case u < 0.45:
				res.Failure = FailureSegfault
			case u < 0.75:
				res.Failure = FailureSystemCrash
			default:
				res.Failure = FailureSDC
				res.Detected = w.HasChecker
			}
		}
	}
	if m.trialFault != nil {
		if err := m.trialFault(res.Core, res.Workload); err != nil {
			return res, err
		}
	}
	return res, nil
}

// RunTrialReference is RunTrial over runTrialReference.
func (m *Machine) RunTrialReference(label string, w workload.Profile, src *rng.Source) (TrialResult, error) {
	core, err := m.Core(label)
	if err != nil {
		return TrialResult{}, err
	}
	return m.runTrialReference(core, &w, src)
}

// RunCoreTrialRetryReference is RunCoreTrialRetry over
// runTrialReference. It returns the final record and the retries used
// instead of handing them to the observer, which it never calls.
func (m *Machine) RunCoreTrialRetryReference(core *Core, w *workload.Profile, src *rng.Source, retries int) (TrialResult, int, error) {
	res, err := m.runTrialReference(core, w, src)
	used := 0
	for a := 1; a <= retries && err != nil && errors.Is(err, ErrTransient); a++ {
		used = a
		res, err = m.runTrialReference(core, w, src.SplitIndex("retry", a))
	}
	if err != nil && errors.Is(err, ErrTransient) && retries > 0 {
		err = fmt.Errorf("%w (persisted through %d retries)", err, retries)
	}
	return res, used, err
}

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
