package manage

import (
	"fmt"

	"repro/internal/chip"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// CalibrateFreqPredictorReference is the calibration ladder that solves
// every rung: 4 loads × one step per core, the all-idle chip state
// included each time it recurs. Tests compare CalibrateFreqPredictor
// against it bit for bit.
func CalibrateFreqPredictorReference(m *chip.Machine, label string) (FreqPredictor, error) {
	ch, err := m.ChipOf(label)
	if err != nil {
		return FreqPredictor{}, err
	}
	type saved struct {
		w      workload.Profile
		mode   chip.Mode
		pstate units.MHz
	}
	before := map[string]saved{}
	for _, c := range ch.Cores {
		before[c.Profile.Label] = saved{c.Workload(), c.Mode(), c.PState()}
	}
	defer func() {
		for _, c := range ch.Cores {
			s := before[c.Profile.Label]
			c.SetWorkload(s.w)
			c.SetMode(s.mode)
			if err := c.SetPState(s.pstate); err != nil {
				panic(err)
			}
		}
	}()

	loads := []workload.Profile{workload.Idle, workload.Stream, workload.Coremark, workload.Daxpy}
	var xs, ys []float64
	for _, load := range loads {
		for n := 0; n < len(ch.Cores); n++ {
			placed := 0
			for _, c := range ch.Cores {
				if c.Profile.Label == label {
					c.SetWorkload(workload.Coremark)
					continue
				}
				if placed < n {
					c.SetWorkload(load)
					placed++
				} else {
					c.SetWorkload(workload.Idle)
				}
			}
			st, err := m.Solve()
			if err != nil {
				return FreqPredictor{}, err
			}
			cs, err := st.ChipState(ch.Profile.Label)
			if err != nil {
				return FreqPredictor{}, err
			}
			core, err := st.CoreState(label)
			if err != nil {
				return FreqPredictor{}, err
			}
			xs = append(xs, float64(cs.Power))
			ys = append(ys, float64(core.Freq))
		}
	}
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		return FreqPredictor{}, fmt.Errorf("manage: freq predictor for %s: %w", label, err)
	}
	return FreqPredictor{Core: label, Fit: fit}, nil
}

// CalibrateFreqPredictorsSolves runs CalibrateFreqPredictors and returns
// how many chip states it solved.
func CalibrateFreqPredictorsSolves(m *chip.Machine, labels []string) (int, error) {
	_, n, err := calibrateFreqPredictors(m, labels)
	return n, err
}
