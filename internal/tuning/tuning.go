// Package tuning implements the paper's deployment procedure
// (Sec. VII-A): a test-time stress-test that finds each core's limit ATM
// configuration while guaranteeing correctness, without the overhead of
// the full per-application characterization.
//
// The full methodology of internal/charact is an *analysis* tool; its
// per-application profiling is too slow for manufacturing flow. Instead,
// test time runs a worst-case battery — a power virus (maximum DC drop
// and temperature), an ISA verification sweep (path coverage), and the
// voltage virus (synchronized di/dt surges on top of daxpy power) — and
// searches each core's most aggressive configuration that sustains all
// of them. The ISA sweep is the isa-suite stressmark (workload.ISASuite),
// run like the two viruses as trials on the core under test, whose
// result checker catches a corrupted run. Because a stress test by
// definition exceeds any real workload's requirements, the resulting
// configuration is safe for production. Vendors may roll the limit
// back one or two further steps for an additional safety guarantee;
// the inter-core variation trend survives rollback (Fig. 11).
package tuning

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// Options tunes the deployment procedure.
type Options struct {
	// Rollback is the optional extra safety margin: steps subtracted
	// from the stress-test limit before deployment. 0 deploys the
	// limit itself (the configuration the paper's management scheme
	// uses).
	Rollback int
	// RunsPerConfig is how many clean executions of each stressmark a
	// configuration needs to count as safe. Default 4.
	RunsPerConfig int
	// Passes repeats the whole battery to build confidence. Default 3.
	Passes int
	// Seed drives the stochastic trials. Default 1.
	Seed uint64
	// Battery overrides the stressmark set (default TestTimeSuite).
	Battery []workload.Stressmark
	// TrialRetries is the budget of extra attempts for a stressmark run
	// that fails with a transient harness error (chip.ErrTransient)
	// before the core is quarantined at static margin. Default 2;
	// negative disables retrying.
	TrialRetries int
	// Obs, when non-nil, collects counters and gauges for the run
	// (stressmark runs, transient retries, quarantines, per-core limits).
	// Nil — the default — disables collection and changes no output.
	Obs *obs.Registry
	// Trace, when non-nil, records per-core stress-test spans on the
	// logical clock for Perfetto inspection.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.RunsPerConfig == 0 {
		o.RunsPerConfig = 4
	}
	if o.Passes == 0 {
		o.Passes = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Battery == nil {
		o.Battery = workload.TestTimeSuite()
	}
	if o.TrialRetries == 0 {
		o.TrialRetries = 2
	}
	if o.TrialRetries < 0 {
		o.TrialRetries = 0
	}
	return o
}

// CoreConfig is one core's deployed fine-tuned configuration.
type CoreConfig struct {
	Core string
	// StressLimit is the most aggressive reduction that sustained the
	// full battery on every pass.
	StressLimit int
	// Reduction is the deployed setting: StressLimit − Rollback,
	// floored at 0.
	Reduction int
	// IdleFreq is the settled frequency at the deployed setting with
	// the rest of the chip idle (the bars of Fig. 11).
	IdleFreq units.MHz
	// LoadedFreq is the settled frequency at the deployed setting with
	// every core of the chip running daxpy — the maximum-DC-drop corner
	// (the worst case of Fig. 1's fourth bar).
	LoadedFreq units.MHz
	// Quarantined marks a core whose stress battery kept failing with
	// transient harness errors: it is deployed at reduction 0 in static
	// mode — the paper's default margin, safe by construction — instead
	// of aborting the whole deployment.
	Quarantined bool
	// QuarantineReason is the persistent error that earned quarantine.
	QuarantineReason string
}

// Deployment is a full server's fine-tuned configuration.
type Deployment struct {
	Configs []CoreConfig
	// Idle and Loaded are the machine's steady state at the deployed
	// configuration with every core idle and with every core running
	// daxpy: the two corners each core's IdleFreq and LoadedFreq are
	// read from.
	Idle, Loaded chip.State
}

// Config returns the entry for a core label.
func (d *Deployment) Config(label string) (CoreConfig, bool) {
	for _, c := range d.Configs {
		if c.Core == label {
			return c, true
		}
	}
	return CoreConfig{}, false
}

// Quarantined returns the labels of cores deployed at the static
// fallback, in sorted order. Empty on a healthy machine.
func (d *Deployment) Quarantined() []string {
	var out []string
	for _, c := range d.Configs {
		if c.Quarantined {
			out = append(out, c.Core)
		}
	}
	sort.Strings(out)
	return out
}

// FastestCores returns core labels ordered by descending idle frequency
// at the deployed configuration — the order the manager assigns critical
// applications in.
func (d *Deployment) FastestCores() []string {
	cs := append([]CoreConfig(nil), d.Configs...)
	sort.Slice(cs, func(i, j int) bool {
		//lint:ignore floatcmp comparator tie-break: exact inequality only routes to the secondary key, any consistent order is deterministic
		if cs[i].IdleFreq != cs[j].IdleFreq {
			return cs[i].IdleFreq > cs[j].IdleFreq
		}
		return cs[i].Core < cs[j].Core
	})
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Core
	}
	return out
}

// SpeedDifferentialMHz returns the fastest-to-slowest deployed idle
// frequency gap — the >200 MHz differential of Sec. VII-A.
func (d *Deployment) SpeedDifferentialMHz() float64 {
	if len(d.Configs) == 0 {
		return 0
	}
	lo, hi := d.Configs[0].IdleFreq, d.Configs[0].IdleFreq
	for _, c := range d.Configs {
		if c.IdleFreq < lo {
			lo = c.IdleFreq
		}
		if c.IdleFreq > hi {
			hi = c.IdleFreq
		}
	}
	return float64(hi - lo)
}

// Split labels of a stress test's per-pass and per-run streams, hashed
// once: src.SplitLabel(runLabel, i) is src.SplitIndex("run", i).
var (
	passLabel = rng.NewLabel("pass")
	runLabel  = rng.NewLabel("run")
)

// StressTestCore finds one core's stress-test limit: the largest
// reduction at which every stressmark of the battery passes
// RunsPerConfig consecutive runs on every pass. It consumes o verbatim
// and rejects, before any trial, a search that would run nothing (no
// pass, no run or no stressmark), which would pass every reduction
// unexamined, and a battery with an invalid stressmark.
func StressTestCore(m *chip.Machine, label string, o Options, src *rng.Source) (int, error) {
	switch {
	case o.Passes < 1:
		return 0, fmt.Errorf("tuning: Passes %d: want at least 1", o.Passes)
	case o.RunsPerConfig < 1:
		return 0, fmt.Errorf("tuning: RunsPerConfig %d: want at least 1", o.RunsPerConfig)
	case len(o.Battery) == 0:
		return 0, errors.New("tuning: empty Battery: want at least one stressmark")
	}
	for _, mark := range o.Battery {
		if err := mark.Validate(); err != nil {
			return 0, err
		}
	}
	core, err := m.Core(label)
	if err != nil {
		return 0, err
	}
	maxR := core.Profile.MaxReduction()
	limit := 0
	for r := 1; r <= maxR; r++ {
		if err := core.Monitor.Program(r); err != nil {
			return 0, err
		}
		safe := true
	passes:
		for pass := 0; pass < o.Passes; pass++ {
			psrc := src.SplitLabel(passLabel, pass)
			for mi := range o.Battery {
				w := &o.Battery[mi].Profile
				msrc := psrc.SplitIndex(w.Name, mi)
				for run := 0; run < o.RunsPerConfig; run++ {
					f, err := m.RunCoreTrialRetry(core, w, msrc.SplitLabel(runLabel, run), o.TrialRetries)
					if err != nil {
						return 0, err
					}
					if f != chip.FailureNone {
						safe = false
						break passes
					}
				}
			}
		}
		if !safe {
			break
		}
		limit = r
	}
	if err := core.Monitor.Program(0); err != nil {
		return 0, err
	}
	return limit, nil
}

// Deploy runs the test-time procedure over every core and programs the
// machine with the resulting configuration: each core at its stress-test
// limit minus the requested rollback, in ATM mode.
//
// The stress-test battery is run with the *whole chip* participating
// (the voltage virus throttles all cores synchronously), which the
// trial model folds into the stressmark's stress score.
func Deploy(m *chip.Machine, opts Options) (*Deployment, error) {
	o := opts.withDefaults()
	if o.Rollback < 0 {
		return nil, fmt.Errorf("tuning: negative rollback %d", o.Rollback)
	}
	root := rng.New(o.Seed)
	dep := &Deployment{}
	runs := o.Obs.Counter("atm_tune_runs_total")
	rets := o.Obs.Counter("atm_tune_transient_retries_total")
	quars := o.Obs.Counter("atm_tune_quarantines_total")
	if o.Obs != nil {
		// Tap every retry-wrapped stressmark run for run/retry counts.
		// The tap observes outcomes only — trial streams are unchanged.
		m.SetTrialObserver(func(label, workload string, retries int, res chip.TrialResult, err error) {
			runs.Inc()
			rets.Add(int64(retries))
		})
		defer m.SetTrialObserver(nil)
	}

	// Limits first (searches touch one core at a time). A core whose
	// battery keeps failing with transient harness errors through the
	// retry budget is quarantined — deployed at the default static
	// margin below — rather than aborting the whole test-time flow.
	m.ResetAll()
	limits := map[string]int{}
	quarantine := map[string]string{}
	for i, core := range m.AllCores() {
		label := core.Profile.Label
		sp := o.Trace.Begin("tune", "stress-test", label)
		lim, err := StressTestCore(m, label, o, root.SplitIndex(label, i))
		if err != nil {
			if !errors.Is(err, chip.ErrTransient) {
				return nil, err
			}
			quarantine[label] = err.Error()
			quars.Inc()
			o.Trace.Instant("tune", "quarantine", label)
			if perr := m.ProgramCPM(label, 0); perr != nil {
				return nil, perr
			}
			lim = 0
		}
		if sp != nil {
			sp.Arg("limit", strconv.Itoa(lim))
		}
		sp.End()
		limits[label] = lim
		o.Obs.Gauge("atm_tune_stress_limit", "core", label).Set(float64(lim))
	}

	// Program the deployment. Quarantined cores stay at reduction 0 in
	// static mode: the stock margin the part shipped with, safe without
	// any trust in this core's harness.
	for _, core := range m.AllCores() {
		label := core.Profile.Label
		if _, bad := quarantine[label]; bad {
			if err := m.ProgramCPM(label, 0); err != nil {
				return nil, err
			}
			core.SetMode(chip.ModeStatic)
			continue
		}
		red := limits[label] - o.Rollback
		if red < 0 {
			red = 0
		}
		if err := m.ProgramCPM(label, red); err != nil {
			return nil, err
		}
		core.SetMode(chip.ModeATM)
	}

	// The two corners: all-idle and all-daxpy.
	var err error
	if dep.Idle, err = m.Solve(); err != nil {
		return nil, err
	}
	for _, core := range m.AllCores() {
		core.SetWorkload(workload.Daxpy)
	}
	if dep.Loaded, err = m.Solve(); err != nil {
		return nil, err
	}
	for _, core := range m.AllCores() {
		core.SetWorkload(workload.Idle)
	}

	for _, core := range m.AllCores() {
		label := core.Profile.Label
		ics, err := dep.Idle.CoreState(label)
		if err != nil {
			return nil, err
		}
		lcs, err := dep.Loaded.CoreState(label)
		if err != nil {
			return nil, err
		}
		red := limits[label] - o.Rollback
		if red < 0 {
			red = 0
		}
		cc := CoreConfig{
			Core:        label,
			StressLimit: limits[label],
			Reduction:   red,
			IdleFreq:    ics.Freq,
			LoadedFreq:  lcs.Freq,
		}
		if reason, bad := quarantine[label]; bad {
			cc.Reduction = 0
			cc.Quarantined = true
			cc.QuarantineReason = reason
		}
		o.Obs.Gauge("atm_tune_deployed_reduction", "core", label).Set(float64(cc.Reduction))
		dep.Configs = append(dep.Configs, cc)
	}
	return dep, nil
}
