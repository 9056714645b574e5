// Package manage implements the paper's Sec. VII management layer for a
// fine-tuned ATM system: the per-core frequency predictor (Eq. 1), the
// per-application performance predictor (Fig. 12b), the CPM-configuration
// governors, and the scheduler/throttler that places critical
// applications on fast cores and holds total chip power under the budget
// their QoS demands (Fig. 13).
package manage

import (
	"fmt"

	"repro/internal/chip"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// FreqPredictor is one core's Eq. 1 model: the runtime average frequency
// as a linear function of total chip power,
//
//	f ≈ −k′·P + b,
//
// where b encodes the core's static CPM setting and k′·P the dynamic
// variation, dominated by the IR voltage drop on the shared delivery
// path. In practice each core stores its model and indexes it by the
// chip's total power during job scheduling (Sec. VII-B).
type FreqPredictor struct {
	Core string
	Fit  stats.LinearFit // x = chip power (W), y = frequency (MHz)
}

// PowerForFreq inverts the model: the total chip power at which the core
// runs at frequency f. The second return is false when the fitted slope
// is (degenerately) non-negative.
func (fp FreqPredictor) PowerForFreq(f units.MHz) (units.Watt, bool) {
	if fp.Fit.Slope >= 0 {
		return 0, false
	}
	return units.Watt((float64(f) - fp.Fit.Intercept) / fp.Fit.Slope), true
}

// MHzPerWatt returns the magnitude of the frequency-vs-power slope (the
// paper measures ≈2 MHz per watt).
func (fp FreqPredictor) MHzPerWatt() float64 { return -fp.Fit.Slope }

// CalibrateFreqPredictor fits a core's Eq. 1 model by sweeping the chip
// through load levels: the target core keeps its current (deployed) CPM
// configuration while the sibling cores step through increasing
// co-runner load, and each steady state contributes one (chip power,
// core frequency) sample.
//
// The machine's workload assignment is restored afterwards.
func CalibrateFreqPredictor(m *chip.Machine, label string) (FreqPredictor, error) {
	ch, err := m.ChipOf(label)
	if err != nil {
		return FreqPredictor{}, err
	}
	// Save and restore sibling state.
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
				panic(err) // restoring a previously valid p-state cannot fail
			}
		}
	}()

	// Load ladder: idle → k stream → k coremark → k daxpy co-runners.
	loads := []workload.Profile{workload.Idle, workload.Stream, workload.Coremark, workload.Daxpy}
	xs := make([]float64, 0, len(loads)*len(ch.Cores))
	ys := make([]float64, 0, len(loads)*len(ch.Cores))
	for li, load := range loads {
		for n := 0; n < len(ch.Cores); n++ {
			// A rung with no loaded sibling (every step of the idle load,
			// and step 0 of the others) is the ladder's first chip state:
			// the target busy, its siblings idle. Solve has no side
			// effects, so that state is solved once and its sample reused.
			if len(xs) > 0 && (li == 0 || n == 0) {
				xs = append(xs, xs[0])
				ys = append(ys, ys[0])
				continue
			}
			placed := 0
			for _, c := range ch.Cores {
				if c.Profile.Label == label {
					c.SetWorkload(workload.Coremark) // keep the target core busy
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

// PerfPredictor is one application's Fig. 12b model: performance
// relative to the static-margin baseline as a linear function of core
// frequency. Memory-bound applications have shallow slopes.
type PerfPredictor struct {
	App string
	Fit stats.LinearFit // x = frequency (MHz), y = relative performance
}

// FreqForPerf inverts the model: the core frequency needed to reach a
// target relative performance.
func (pp PerfPredictor) FreqForPerf(perf float64) (units.MHz, bool) {
	if pp.Fit.Slope <= 0 {
		return 0, false
	}
	return units.MHz((perf - pp.Fit.Intercept) / pp.Fit.Slope), true
}

// CalibratePerfPredictor fits an application's performance-vs-frequency
// line over the fine-tuned operating range by profiling the workload
// model at swept frequencies (on hardware this is a frequency-pinning
// profiling run per application; Sec. VII-C).
func CalibratePerfPredictor(app workload.Profile, base units.MHz) (PerfPredictor, error) {
	var xs, ys []float64
	for f := float64(base); f <= float64(base)*1.25; f += 50 {
		xs = append(xs, f)
		ys = append(ys, app.RelPerf(f, float64(base)))
	}
	fit, err := stats.FitLinear(xs, ys)
	if err != nil {
		return PerfPredictor{}, fmt.Errorf("manage: perf predictor for %s: %w", app.Name, err)
	}
	return PerfPredictor{App: app.Name, Fit: fit}, nil
}

// PredictorSet bundles the calibrated models the manager consults.
type PredictorSet struct {
	Freq map[string]FreqPredictor
	Perf map[string]PerfPredictor
	Base units.MHz
}

// CalibratePredictors fits the Eq. 1 model for every core of the
// machine and the performance model for every realistic workload.
func CalibratePredictors(m *chip.Machine) (*PredictorSet, error) {
	base := m.Profile().Params().FStatic
	ps := &PredictorSet{
		Freq: map[string]FreqPredictor{},
		Perf: map[string]PerfPredictor{},
		Base: base,
	}
	for _, core := range m.AllCores() {
		fp, err := CalibrateFreqPredictor(m, core.Profile.Label)
		if err != nil {
			return nil, err
		}
		ps.Freq[core.Profile.Label] = fp
	}
	for _, app := range workload.Realistic() {
		pp, err := CalibratePerfPredictor(app, base)
		if err != nil {
			return nil, err
		}
		ps.Perf[app.Name] = pp
	}
	return ps, nil
}
