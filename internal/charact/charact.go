// Package charact implements the paper's characterization methodology
// (Sec. III-B, Fig. 6): a per-core, increasing-complexity search for the
// most aggressive safe CPM configuration, with repeated stochastic
// trials building the limit *distributions* the paper analyzes.
//
// The pipeline per core:
//
//  1. System idle — sweep the inserted-delay reduction upward from the
//     default until a failure; repeat for a distribution whose lowest
//     value is the core's *idle limit* (Fig. 7, Table I row 1).
//  2. uBench — starting at the idle limit, run coremark/daxpy/stream;
//     on failure roll the reduction back until all three run clean.
//     The result is the *uBench limit* (Fig. 8, Table I row 2).
//  3. Realistic workloads — for every profiled application, find the
//     rollback from the uBench limit the application demands
//     (Fig. 9/10); the per-core minimum over all applications is
//     *thread-worst*, the minimum over medium-and-light applications is
//     *thread-normal* (Table I rows 3–4).
package charact

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/workload"
)

// MediumStressCutoff bounds the "medium and light applications" set the
// thread-normal configuration supports (Sec. VI): workloads at or below
// this stress score define thread-normal; everything profiled defines
// thread-worst.
const MediumStressCutoff = 0.56

// Options tunes the characterization.
type Options struct {
	// Trials is the number of repeated searches per (core, workload).
	// The paper repeats failure experiments "multiple times"; default 10.
	Trials int
	// RunsPerConfig is how many times a configuration must execute the
	// workload cleanly within one search before it counts as safe
	// (test engineering practice: a single clean run proves little).
	// Default 4.
	RunsPerConfig int
	// Seed makes the stochastic trials reproducible. Default 1.
	Seed uint64
	// Apps overrides the realistic workload set (default: the full
	// SPEC + PARSEC + DNN library).
	Apps []workload.Profile
	// Obs, when non-nil, collects counters for the run (trials, runs,
	// transient retries, quarantines). Nil — the default — disables
	// collection at near-zero cost and changes no output.
	Obs *obs.Registry
	// Trace, when non-nil, records per-core and per-stage spans on the
	// simulated/logical clock for Perfetto inspection.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 10
	}
	if o.RunsPerConfig == 0 {
		o.RunsPerConfig = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Apps == nil {
		o.Apps = workload.Realistic()
	}
	return o
}

// trialRetries is the budget of extra attempts for a trial that fails
// with a transient harness error (chip.ErrTransient) before the core is
// quarantined.
const trialRetries = 2

// Distribution is the repeated-trial outcome of one limit search.
type Distribution struct {
	Core     string
	Workload string
	// Hist counts the per-trial observed safe limits (reductions).
	Hist *stats.Histogram
	// Limit is the paper's definition: the lowest (most conservative)
	// value of the distribution.
	Limit int
}

// Tight reports whether the distribution covers at most two adjacent
// configurations — the paper's expectation ("we expect the
// distributions to be tight because timing violations are not entirely
// random").
func (d Distribution) Tight() bool { return d.Hist.Spread() <= 1 }

// CoreResult is everything the methodology learns about one core.
type CoreResult struct {
	Core string

	// Idle is the system-idle limit distribution (Fig. 7).
	Idle Distribution
	// IdleFreq is the settled frequency at the idle limit with the rest
	// of the chip idle (the blue marks of Fig. 7).
	IdleFreq units.MHz

	// UBenchLimit is the most conservative limit across the three
	// micro-benchmarks.
	UBenchLimit int
	// UBenchRollback is the distribution of steps rolled back from the
	// idle limit across uBench trials (Fig. 8).
	UBenchRollback *stats.Histogram
	// PerKernelLimit records each micro-benchmark's own limit.
	PerKernelLimit map[string]int

	// AppLimit is each realistic application's limit on this core
	// (minimum over trials).
	AppLimit map[string]int
	// AppRollbackMean is the weighted average CPM rollback from the
	// uBench limit per application (the cells of Fig. 10).
	AppRollbackMean map[string]float64

	// ThreadNormal and ThreadWorst are Table I rows 3 and 4.
	ThreadNormal int
	ThreadWorst  int

	// Quarantined marks a core whose trials kept failing with transient
	// harness errors after the retry budget: the methodology reports it
	// (with whatever stages completed zeroed) instead of aborting the
	// whole characterization. A deployment must fall back to static
	// margin for such a core.
	Quarantined bool
	// QuarantineReason is the persistent error that earned quarantine.
	QuarantineReason string
}

// Report is the full characterization of a machine.
type Report struct {
	Cores []CoreResult
	Opts  Options
}

// Core returns the result for a core label.
func (r *Report) Core(label string) (CoreResult, bool) {
	for _, c := range r.Cores {
		if c.Core == label {
			return c, true
		}
	}
	return CoreResult{}, false
}

// Characterize runs the full methodology over every core of the
// machine. The machine is left with all CPMs back at the default
// configuration.
func Characterize(m *chip.Machine, opts Options) (*Report, error) {
	o := opts.withDefaults()
	root := rng.New(o.Seed)
	rep := &Report{Opts: o}
	in := newInstr(o.Obs, o.Trace, "atm_charact")
	if o.Obs != nil {
		// Tap every retry-wrapped trial for run/retry counts. The tap
		// observes outcomes only; it never draws randomness, so the
		// trial streams — and every report number — are unchanged.
		m.SetTrialObserver(in.observeTrial)
		defer m.SetTrialObserver(nil)
	}

	// Settle the all-idle supply once per chip for Fig. 7 frequencies.
	m.ResetAll()
	idleState, err := m.Solve()
	if err != nil {
		return nil, err
	}

	ubench := workload.UBench()
	ci := 0 // the core's index over the whole machine, for its stream
	for _, c := range m.Chips {
		cs, csErr := idleState.ChipState(c.Profile.Label)
		for _, core := range c.Cores {
			label := core.Profile.Label
			src := root.SplitIndex(label, ci)
			ci++
			csp := o.Trace.Begin("charact", "core", label)
			res, err := characterizeCore(m, core, ubench, o, in, src)
			if err != nil {
				if !errors.Is(err, chip.ErrTransient) {
					return nil, err
				}
				// The harness kept failing on this core through the
				// retry budget: quarantine it and keep characterizing
				// the rest of the machine. The report carries the
				// reason; a deployment must leave this core at static
				// margin.
				res = quarantinedResult(label, err)
				in.quarantines.Inc()
				o.Trace.Instant("charact", "quarantine", label)
				if perr := core.Monitor.Program(0); perr != nil {
					return nil, perr
				}
			}
			csp.End()
			if csErr == nil {
				f, ferr := core.Profile.SettledFreq(res.Idle.Limit, cs.Supply)
				if ferr == nil {
					res.IdleFreq = f
				}
			}
			rep.Cores = append(rep.Cores, res)
		}
	}
	m.ResetAll()
	return rep, nil
}

// quarantinedResult builds the report entry for a core whose harness
// never stabilized: every numeric field zeroed, containers non-nil so
// downstream consumers need no special-casing beyond the flag.
func quarantinedResult(label string, cause error) CoreResult {
	return CoreResult{
		Core:             label,
		Idle:             Distribution{Core: label, Workload: workload.Idle.Name, Hist: stats.NewHistogram()},
		UBenchRollback:   stats.NewHistogram(),
		PerKernelLimit:   map[string]int{},
		AppLimit:         map[string]int{},
		AppRollbackMean:  map[string]float64{},
		Quarantined:      true,
		QuarantineReason: cause.Error(),
	}
}

// characterizeCore runs the three methodology stages for one core;
// ubench is the micro-benchmark set of stage 2.
func characterizeCore(m *chip.Machine, core *chip.Core, ubench []workload.Profile, o Options, in instr, src *rng.Source) (CoreResult, error) {
	label := core.Profile.Label
	res := CoreResult{
		Core:            label,
		PerKernelLimit:  make(map[string]int, len(ubench)),
		AppLimit:        make(map[string]int, len(o.Apps)),
		AppRollbackMean: make(map[string]float64, len(o.Apps)),
	}

	// Stage 1: system idle, upward sweep.
	sp := in.tr.Begin("charact", "stage:idle", label)
	idle, err := findLimit(m, core, &workload.Idle, o.Trials, o.RunsPerConfig, trialRetries, src.Split("idle"), in.idleTrials, in.tr)
	sp.End()
	if err != nil {
		return CoreResult{}, err
	}
	res.Idle = idle

	// Stage 2: micro-benchmarks, rollback from the idle limit.
	res.UBenchRollback = stats.NewHistogram()
	res.UBenchLimit = idle.Limit
	sp = in.tr.Begin("charact", "stage:ubench", label)
	for i := range ubench {
		ub := &ubench[i]
		d, err := findRollback(m, core, ub, idle.Limit, o.Trials, o.RunsPerConfig, trialRetries, src.Split("ubench/"+ub.Name), in.ubenchTrials, in.tr)
		if err != nil {
			sp.End()
			return CoreResult{}, err
		}
		res.PerKernelLimit[ub.Name] = d.Limit
		if d.Limit < res.UBenchLimit {
			res.UBenchLimit = d.Limit
		}
		for _, v := range d.Hist.Support() {
			for n := 0; n < d.Hist.Count(v); n++ {
				res.UBenchRollback.Add(idle.Limit - v)
			}
		}
	}
	sp.End()

	// Stage 3: realistic applications, rollback from the uBench limit.
	worst := res.UBenchLimit
	normal := res.UBenchLimit
	sp = in.tr.Begin("charact", "stage:app", label)
	for i := range o.Apps {
		app := &o.Apps[i]
		d, err := findRollback(m, core, app, res.UBenchLimit, o.Trials, o.RunsPerConfig, trialRetries, src.Split("app/"+app.Name), in.appTrials, in.tr)
		if err != nil {
			sp.End()
			return CoreResult{}, err
		}
		res.AppLimit[app.Name] = d.Limit
		res.AppRollbackMean[app.Name] = float64(res.UBenchLimit) - d.Hist.WeightedMean()
		if d.Limit < worst {
			worst = d.Limit
		}
		if app.StressScore <= MediumStressCutoff && d.Limit < normal {
			normal = d.Limit
		}
	}
	sp.End()
	res.ThreadWorst = worst
	res.ThreadNormal = normal
	return res, nil
}

// Split labels of a search's per-trial, per-configuration and per-run
// streams, hashed once: src.SplitLabel(runLabel, i) is
// src.SplitIndex("run", i).
var (
	trialLabel = rng.NewLabel("trial")
	rLabel     = rng.NewLabel("r")
	runLabel   = rng.NewLabel("run")
)

// configSafe runs the workload runs times at the core's current
// configuration; the configuration is safe only when every run passes.
// A run that fails with a transient harness error is retried up to
// retries extra attempts (chip.RunCoreTrialRetry); attempt 0 always
// draws from the same stream as retry-free code, so a fault-free machine
// yields byte-identical results regardless of the budget.
func configSafe(m *chip.Machine, core *chip.Core, w *workload.Profile, runs, retries int, src *rng.Source) (bool, error) {
	for i := 0; i < runs; i++ {
		f, err := m.RunCoreTrialRetry(core, w, src.SplitLabel(runLabel, i), retries)
		if err != nil {
			return false, err
		}
		if f != chip.FailureNone {
			return false, nil
		}
	}
	return true, nil
}

// checkCounts rejects a search that would run nothing: with no trial
// the limit reads 0, and with no run per configuration every
// configuration passes unexamined.
func checkCounts(trials, runsPerConfig int) error {
	if trials < 1 {
		return fmt.Errorf("charact: Trials %d: want at least 1", trials)
	}
	if runsPerConfig < 1 {
		return fmt.Errorf("charact: RunsPerConfig %d: want at least 1", runsPerConfig)
	}
	return nil
}

// findLimit performs the idle-style upward search: per trial, increase
// the reduction from 0 until the first failure; the trial's limit is the
// last safe configuration. Returns the distribution over trials. Each
// run retries transient harness failures up to retries times; tc counts
// the trials and tr traces them (both may be nil).
func findLimit(m *chip.Machine, core *chip.Core, w *workload.Profile, trials, runsPerConfig, retries int, src *rng.Source, tc *obs.Counter, tr *obs.Tracer) (Distribution, error) {
	if err := checkCounts(trials, runsPerConfig); err != nil {
		return Distribution{}, err
	}
	label := core.Profile.Label
	maxR := core.Profile.MaxReduction()
	d := Distribution{Core: label, Workload: w.Name, Hist: stats.NewHistogram()}
	for t := 0; t < trials; t++ {
		tc.Inc()
		tsp := tr.Begin("charact", "trial", label)
		if tsp != nil {
			// Argument rendering only runs with the plane enabled.
			tsp.Arg("workload", w.Name).Arg("trial", strconv.Itoa(t))
		}
		tsrc := src.SplitLabel(trialLabel, t)
		lim := 0
		for r := 1; r <= maxR; r++ {
			if err := core.Monitor.Program(r); err != nil {
				return Distribution{}, err
			}
			ok, err := configSafe(m, core, w, runsPerConfig, retries, tsrc.SplitLabel(rLabel, r))
			if err != nil {
				return Distribution{}, err
			}
			if !ok {
				break
			}
			lim = r
		}
		if tsp != nil {
			tsp.Arg("limit", strconv.Itoa(lim))
		}
		tsp.End()
		d.Hist.Add(lim)
	}
	if err := core.Monitor.Program(0); err != nil {
		return Distribution{}, err
	}
	lo, _ := d.Hist.MinValue()
	d.Limit = lo
	return d, nil
}

// findRollback performs the uBench/application-style search: per trial,
// start at the given configuration and roll the reduction back until the
// workload runs correctly (Sec. V-B). Returns the distribution of safe
// configurations over trials. retries, tc and tr are as for findLimit.
func findRollback(m *chip.Machine, core *chip.Core, w *workload.Profile, start, trials, runsPerConfig, retries int, src *rng.Source, tc *obs.Counter, tr *obs.Tracer) (Distribution, error) {
	if err := checkCounts(trials, runsPerConfig); err != nil {
		return Distribution{}, err
	}
	label := core.Profile.Label
	d := Distribution{Core: label, Workload: w.Name, Hist: stats.NewHistogram()}
	for t := 0; t < trials; t++ {
		tc.Inc()
		tsp := tr.Begin("charact", "trial", label)
		if tsp != nil {
			tsp.Arg("workload", w.Name).Arg("trial", strconv.Itoa(t))
		}
		tsrc := src.SplitLabel(trialLabel, t)
		r := start
		for r > 0 {
			if err := core.Monitor.Program(r); err != nil {
				return Distribution{}, err
			}
			ok, err := configSafe(m, core, w, runsPerConfig, retries, tsrc.SplitLabel(rLabel, r))
			if err != nil {
				return Distribution{}, err
			}
			if ok {
				break
			}
			r--
		}
		if tsp != nil {
			tsp.Arg("limit", strconv.Itoa(r))
		}
		tsp.End()
		d.Hist.Add(r)
	}
	if err := core.Monitor.Program(0); err != nil {
		return Distribution{}, err
	}
	lo, _ := d.Hist.MinValue()
	d.Limit = lo
	return d, nil
}

// TableIRow is one core's line of the paper's Table I.
type TableIRow struct {
	Core                        string
	Idle, UBench, Normal, Worst int
	// Quarantined marks a row whose limits are meaningless: the core's
	// harness never stabilized and it must stay at static margin.
	Quarantined bool
}

// TableI extracts the Table I reproduction from a report, in core order.
func (r *Report) TableI() []TableIRow {
	rows := make([]TableIRow, 0, len(r.Cores))
	for _, c := range r.Cores {
		rows = append(rows, TableIRow{
			Core:        c.Core,
			Idle:        c.Idle.Limit,
			UBench:      c.UBenchLimit,
			Normal:      c.ThreadNormal,
			Worst:       c.ThreadWorst,
			Quarantined: c.Quarantined,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Core < rows[j].Core })
	return rows
}

// RobustnessRank orders cores by increasing total Fig. 10 rollback —
// the most robust cores (right-hand columns of Fig. 10) come last.
// Each core's total sums its applications in name order, so the same
// report always ranks the same way.
func (r *Report) RobustnessRank() []string {
	type agg struct {
		core string
		sum  float64
	}
	var all []agg
	for _, c := range r.Cores {
		if c.Quarantined {
			continue
		}
		apps := make([]string, 0, len(c.AppRollbackMean))
		for app := range c.AppRollbackMean {
			apps = append(apps, app)
		}
		sort.Strings(apps)
		s := 0.0
		for _, app := range apps {
			s += c.AppRollbackMean[app]
		}
		all = append(all, agg{c.Core, s})
	}
	sort.Slice(all, func(i, j int) bool {
		//lint:ignore floatcmp comparator tie-break: exact inequality only routes to the secondary key, any consistent order is deterministic
		if all[i].sum != all[j].sum {
			return all[i].sum > all[j].sum
		}
		return all[i].core < all[j].core
	})
	out := make([]string, len(all))
	for i, a := range all {
		out[i] = a.core
	}
	return out
}

// Validate sanity-checks the report's internal consistency: limits must
// be monotone across methodology stages on every characterized core.
// Quarantined cores carry no limits and are skipped.
func (r *Report) Validate() error {
	for _, c := range r.Cores {
		if c.Quarantined {
			continue
		}
		if c.UBenchLimit > c.Idle.Limit {
			return fmt.Errorf("charact: %s uBench limit %d above idle limit %d",
				c.Core, c.UBenchLimit, c.Idle.Limit)
		}
		if c.ThreadNormal > c.UBenchLimit || c.ThreadWorst > c.ThreadNormal {
			return fmt.Errorf("charact: %s limits not monotone: ub %d normal %d worst %d",
				c.Core, c.UBenchLimit, c.ThreadNormal, c.ThreadWorst)
		}
	}
	return nil
}
