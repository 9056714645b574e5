package chip

import (
	"fmt"

	"repro/internal/dpll"
	"repro/internal/pdn"
	"repro/internal/rng"
	"repro/internal/units"
)

// TransientSample is one control-interval snapshot of a transient run.
type TransientSample struct {
	TimeNs float64
	Supply units.Volt
	Freqs  []units.MHz
}

// TransientResult is a transient trace of one chip.
type TransientResult struct {
	Samples    []TransientSample
	Violations int
	// MeanFreq is each core's average frequency over the run — the
	// 32 ms sliding-window average the off-chip controller consumes.
	MeanFreq []units.MHz
}

// Transient runs the per-core DPLL loops of one chip for n control
// intervals of dtNs nanoseconds against the live PDN: the steady DC
// operating point plus stochastic di/dt droop events whose rate and
// magnitude follow each core's workload stress score.
//
// This is the cycle-approximate view of what the steady-state solver
// shortcuts; TestTransientMatchesSolve verifies the two agree. It also
// demonstrates the loop's emergency response — the reason infrequent
// droops cost almost no average frequency under ATM (Sec. II).
func (m *Machine) Transient(chipLabel string, n int, dtNs float64, src *rng.Source) (TransientResult, error) {
	var c *Chip
	for _, ch := range m.Chips {
		if ch.Profile.Label == chipLabel {
			c = ch
			break
		}
	}
	if c == nil {
		return TransientResult{}, fmt.Errorf("chip: no chip %q", chipLabel)
	}
	if n <= 0 || dtNs <= 0 {
		return TransientResult{}, fmt.Errorf("chip: transient needs positive n and dt")
	}

	loops := make([]*dpll.Loop, len(c.Cores))
	for i, core := range c.Cores {
		loops[i] = dpll.New(core.Monitor, core.Profile.DefaultFreq())
	}

	// Steady DC point from the solver (frequency feedback on power is
	// second-order over a short transient, so hold the DC supply).
	st, err := m.solveChip(c)
	if err != nil {
		return TransientResult{}, err
	}
	baseV := st.Supply

	// Every sample's Freqs is a window of one n×cores array, so a run
	// allocates the same few times however many intervals it steps.
	k := len(c.Cores)
	res := TransientResult{
		Samples:  make([]TransientSample, n),
		MeanFreq: make([]units.MHz, k),
	}
	freqs := make([]units.MHz, n*k)
	sums := make([]float64, k)

	// Droop event state: an active droop decays over a few intervals.
	droop := 0.0       // volts, positive = sag
	const decay = 0.55 // per-interval decay of an active droop

	for step := 0; step < n; step++ {
		// Fire new events: rate scales with the worst stress score on
		// the chip; magnitude with the synchronized current swing.
		worst := 0.0
		for _, core := range c.Cores {
			if !core.gated && core.work.StressScore > worst {
				worst = core.work.StressScore
			}
		}
		if worst > 0 && src.Float64() < 0.02+0.10*worst {
			amps := 0.0
			for i, core := range c.Cores {
				if core.gated {
					continue
				}
				amps += DynCurrentAmps(core.work, loops[i].Freq(), baseV) * core.work.StressScore
			}
			peak := float64(pdn.FirstDroopPeak(amps))
			droop += peak * (0.5 + 0.5*src.Float64())
		}
		droop *= decay

		v := units.Volt(float64(baseV) - droop)
		row := freqs[step*k : (step+1)*k : (step+1)*k]
		for i, loop := range loops {
			if c.Cores[i].gated {
				continue // row[i] stays 0
			}
			r := loop.Step(v)
			if r.Units < 0 {
				res.Violations++
			}
			row[i] = loop.Freq()
			sums[i] += float64(loop.Freq())
		}
		res.Samples[step] = TransientSample{TimeNs: float64(step) * dtNs, Supply: v, Freqs: row}
	}
	for i := range sums {
		res.MeanFreq[i] = units.MHz(sums[i] / float64(n))
	}
	return res, nil
}
