// Package manage implements the paper's Sec. VII management layer for a
// fine-tuned ATM system: the per-core frequency predictor (Eq. 1), the
// per-application performance predictor (Fig. 12b), the CPM-configuration
// governors, and the scheduler/throttler that places critical
// applications on fast cores and holds total chip power under the budget
// their QoS demands (Fig. 13).
package manage

import (
	"fmt"
	"strings"

	"repro/internal/chip"
	"repro/internal/silicon"
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
	fps, err := CalibrateFreqPredictors(m, []string{label})
	if err != nil {
		return FreqPredictor{}, err
	}
	return fps[0], nil
}

// CalibrateFreqPredictors fits the Eq. 1 model of every listed core, in
// order, each exactly as CalibrateFreqPredictor fits it alone. A rung
// solves only its core's chip, and a chip state is solved once however
// often the ladders meet it: one core's 32 rungs hold 22 distinct
// states, and an 8-core chip's eight ladders 148 instead of 176, since
// a state with k coremark co-runners recurs for every target among
// them.
//
// The machine's workload assignment is restored afterwards.
func CalibrateFreqPredictors(m *chip.Machine, labels []string) ([]FreqPredictor, error) {
	fps, _, err := calibrateFreqPredictors(m, labels)
	return fps, err
}

// ladderLoads are the co-runner levels of the calibration ladder: idle,
// then k stream, k coremark and k daxpy co-runners. A chip state is
// keyed by each core's index in this list.
var ladderLoads = []workload.Profile{workload.Idle, workload.Stream, workload.Coremark, workload.Daxpy}

// ladderTarget is the index of the load the target core runs on every
// rung, so the core is busy whatever its siblings run.
const ladderTarget = 2

// calibrateFreqPredictors is CalibrateFreqPredictors that also returns
// how many chip states it solved.
func calibrateFreqPredictors(m *chip.Machine, labels []string) ([]FreqPredictor, int, error) {
	out := make([]FreqPredictor, len(labels))
	var ladders []*ladder
	defer func() {
		for _, l := range ladders {
			l.restore()
		}
	}()
	for i, label := range labels {
		ch, err := m.ChipOf(label)
		if err != nil {
			return nil, 0, err
		}
		var l *ladder
		for _, have := range ladders {
			if have.chip == ch {
				l = have
			}
		}
		if l == nil {
			l = newLadder(m, ch, len(labels))
			ladders = append(ladders, l)
		}
		fp, err := l.fit(label)
		if err != nil {
			return nil, 0, err
		}
		out[i] = fp
	}
	solves := 0
	for _, l := range ladders {
		solves += len(l.states)
	}
	return out, solves, nil
}

// ladder walks one chip's calibration ladders. Every rung sets every
// core's workload, so a rung's chip state is the load each core runs,
// and the state's chip power and core frequencies are solved once and
// kept in states for every later rung that meets it: states holds one
// entry per solve.
type ladder struct {
	chip   *chip.Chip
	solver *chip.ChipSolver
	saved  []workload.Profile

	loads  []byte         // the rung's load index per core
	states map[string]int // a chip state's loads → its offset in results
	// keys holds the bytes of every key in states back to back, each key
	// a substring of keys.String(), so recording a state allocates
	// nothing once keys has grown to the ladder's size.
	keys strings.Builder
	// results holds each solved state's chip power followed by its
	// cores' frequencies.
	results []float64
	xs, ys  []float64 // the walk's samples, one per rung
}

// newLadder prepares the ladders of up to targets cores of ch, sized so
// its walks allocate nothing more.
func newLadder(m *chip.Machine, ch *chip.Chip, targets int) *ladder {
	n := len(ch.Cores)
	rungs := len(ladderLoads) * n
	states := min(targets, n) * (1 + (len(ladderLoads)-1)*(n-1))
	l := &ladder{
		chip:    ch,
		solver:  m.NewChipSolver(ch),
		saved:   make([]workload.Profile, n),
		loads:   make([]byte, n),
		states:  make(map[string]int, states),
		results: make([]float64, 0, states*(n+1)),
		xs:      make([]float64, rungs),
		ys:      make([]float64, rungs),
	}
	for i, c := range ch.Cores {
		l.saved[i] = c.Workload()
	}
	l.keys.Grow(states * n)
	return l
}

// fit walks label's ladder, idle → k stream → k coremark → k daxpy
// co-runners for k = 0 … n−1, and fits its samples.
func (l *ladder) fit(label string) (FreqPredictor, error) {
	target := -1
	for i, c := range l.chip.Cores {
		if c.Profile.Label == label {
			target = i
		}
	}
	n := len(l.loads)
	for li := range ladderLoads {
		for k := 0; k < n; k++ {
			placed := 0
			for i := range l.loads {
				switch {
				case i == target:
					l.loads[i] = ladderTarget
				case placed < k:
					l.loads[i] = byte(li)
					placed++
				default:
					l.loads[i] = 0
				}
			}
			at, ok := l.states[string(l.loads)]
			if !ok {
				var err error
				if at, err = l.solve(); err != nil {
					return FreqPredictor{}, err
				}
			}
			l.xs[li*n+k] = l.results[at]
			l.ys[li*n+k] = l.results[at+1+target]
		}
	}
	fit, err := stats.FitLinear(l.xs, l.ys)
	if err != nil {
		return FreqPredictor{}, fmt.Errorf("manage: freq predictor for %s: %w", label, err)
	}
	return FreqPredictor{Core: label, Fit: fit}, nil
}

// solve runs the chip under the rung's loads and records the state,
// returning its offset in results.
func (l *ladder) solve() (int, error) {
	for i, c := range l.chip.Cores {
		c.SetWorkload(ladderLoads[l.loads[i]])
	}
	p, err := l.solver.Solve()
	if err != nil {
		return 0, err
	}
	at := len(l.results)
	l.results = append(l.results, float64(p))
	for i := range l.chip.Cores {
		l.results = append(l.results, float64(l.solver.Freq(i)))
	}
	start := l.keys.Len()
	l.keys.Write(l.loads)
	l.states[l.keys.String()[start:]] = at
	return at, nil
}

// restore puts back the workloads the chip's cores ran before the walk.
func (l *ladder) restore() {
	for i, c := range l.chip.Cores {
		c.SetWorkload(l.saved[i])
	}
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
	base := silicon.FStatic
	ps := &PredictorSet{
		Freq: map[string]FreqPredictor{},
		Perf: map[string]PerfPredictor{},
		Base: base,
	}
	cores := m.AllCores()
	labels := make([]string, len(cores))
	for i, core := range cores {
		labels[i] = core.Profile.Label
	}
	fps, err := CalibrateFreqPredictors(m, labels)
	if err != nil {
		return nil, err
	}
	for _, fp := range fps {
		ps.Freq[fp.Core] = fp
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
