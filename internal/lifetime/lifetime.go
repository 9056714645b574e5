package lifetime

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/chip"
	"repro/internal/fsp"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sentinel"
	"repro/internal/silicon"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Options configures a lifetime simulation. The zero value (plus a
// profile) runs three years at seed 1 with the sentinel on.
type Options struct {
	// Years is the simulated horizon. Default 3; Run rejects a
	// negative value.
	Years int
	// Seed drives every stochastic element: drift trajectories,
	// ambient excursions, workload trials, re-tune searches. Default 1.
	Seed uint64
	// SentinelOff disables the margin sentinel: the machine keeps its
	// day-one fine-tuned configuration for the whole horizon. This is
	// the control arm — it demonstrates why the sentinel must exist.
	SentinelOff bool
	// Obs, when non-nil, collects lifetime and sentinel telemetry.
	Obs *obs.Registry
	// Trace, when non-nil, records sentinel actions and failures.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Years == 0 {
		o.Years = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// epochHours is the simulation step: drift is re-applied, one trial
// per active core runs, and the sentinel takes one margin sample per
// epoch.
const epochHours = 6

// EventKind tags a timeline entry.
const (
	EventFailure    = "timing-failure"
	EventStepBack   = "step-back"
	EventRetune     = "retune"
	EventStatic     = "static-fallback"
	EventQuarantine = "quarantine"
)

// Event is one timeline entry: a timing failure or a sentinel action,
// stamped with simulated time.
type Event struct {
	Epoch int     `json:"epoch"`
	Hours float64 `json:"hours"`
	Core  string  `json:"core"`
	Kind  string  `json:"kind"`
	// Reduction is the core's CPM reduction after the event.
	Reduction int `json:"reduction"`
	// Detail carries the failure manifestation or action note.
	Detail string `json:"detail,omitempty"`
}

// CoreReport summarizes one core's journey across the horizon.
type CoreReport struct {
	Core string `json:"core"`
	// StartReduction is the day-one fine-tuned setting.
	StartReduction int `json:"start_reduction"`
	// EndReduction is where the sentinel left the core.
	EndReduction int `json:"end_reduction"`
	// StartMargin/EndMargin are the CPM slack margins (sigma) at
	// deployment and at the end of the horizon.
	StartMargin float64 `json:"start_margin"`
	EndMargin   float64 `json:"end_margin"`
	// AgeFrac is the final fractional true-path slowdown.
	AgeFrac float64 `json:"age_frac"`
	// Failures counts the core's timing failures.
	Failures int `json:"failures"`
	// StepBacks/Retunes count sentinel interventions on the core.
	StepBacks int `json:"step_backs"`
	Retunes   int `json:"retunes"`
	// Static/Quarantined report terminal sentinel states.
	Static      bool `json:"static"`
	Quarantined bool `json:"quarantined"`
}

// Result is the outcome of a lifetime simulation.
type Result struct {
	Years       int  `json:"years"`
	Epochs      int  `json:"epochs"`
	SentinelOff bool `json:"sentinel_off"`
	// Trials is the number of production workload trials executed.
	Trials int `json:"trials"`
	// Failures is the number of timing failures across the horizon —
	// the safety criterion: a safe configuration has zero.
	Failures int `json:"failures"`
	// Interventions aggregate the sentinel's actions.
	StepBacks   int `json:"step_backs"`
	Retunes     int `json:"retunes"`
	Statics     int `json:"statics"`
	Quarantines int `json:"quarantines"`
	// Cores reports per-core journeys in address order.
	Cores []CoreReport `json:"cores"`
	// Timeline holds failures and interventions in simulated-time
	// order, capped at timelineCap entries.
	Timeline []Event `json:"timeline"`
	// TimelineTruncated reports that events beyond the cap were
	// counted but not recorded.
	TimelineTruncated bool `json:"timeline_truncated"`
	// Safe is the verdict: the horizon completed with zero failures.
	Safe bool `json:"safe"`
}

// Verdict renders the safety verdict.
func (r *Result) Verdict() string {
	if r.Safe {
		return "SAFE"
	}
	return "UNSAFE"
}

// timelineCap bounds the recorded timeline. A sentinel-off run on
// drifted silicon takes thousands of timing failures; the count is
// exact, the first entries identify the pattern.
const timelineCap = 128

// workMix is the production workload each core index runs during work
// hours. x264 (stress score 1.00) pins a quarter of the fleet at the
// worst-case envelope — those cores have zero slack beyond what the
// margin register reports.
var workMix = []workload.Profile{workload.X264, workload.Deepsjeng, workload.MCF, workload.Omnetpp}

// trialLabel splits each production trial's stream, hashed once:
// src.SplitLabel(trialLabel, i) is src.SplitIndex("trial", i).
var trialLabel = rng.NewLabel("trial")

// actuator translates sentinel decisions into FSP-plane operations on
// the simulated machine. Control actions go through the operator
// client — the same protocol path a test-floor script uses — so every
// intervention is observable at the protocol layer.
type actuator struct {
	m    *chip.Machine
	cli  *fsp.Client
	tune tuning.Options
	// src seeds re-tune searches; retunes counts them for labelling.
	src     *rng.Source
	retunes int
}

func (a *actuator) StepBack(core string) (int, error) {
	red, err := a.cli.CPM(core)
	if err != nil {
		return 0, err
	}
	if red == 0 {
		return 0, nil
	}
	if err := a.cli.SetCPM(core, red-1); err != nil {
		return red, err
	}
	return red - 1, nil
}

func (a *actuator) Retune(core string) (int, error) {
	a.retunes++
	lim, err := tuning.StressTestCore(a.m, core, a.tune, a.src.SplitIndex("retune", a.retunes))
	if err != nil {
		return 0, err
	}
	// Chaos hook: killing the process here — after the search, before
	// the commit — must leave a rerun byte-identical, because a
	// failed fleet job is never cached and replays from scratch.
	guard.CrashPoint("sentinel/retune-commit")
	if err := a.cli.SetCPM(core, lim); err != nil {
		return 0, err
	}
	return lim, nil
}

func (a *actuator) Static(core string) error {
	if err := a.cli.SetCPM(core, 0); err != nil {
		return err
	}
	return a.cli.SetMode(core, "static")
}

func (a *actuator) Quarantine(core, reason string) error {
	if _, err := a.cli.Exec(fmt.Sprintf("gate %s on", core)); err != nil {
		return err
	}
	return nil
}

// Run simulates o.Years of field operation on the given silicon. The
// profile is cloned before anything touches it: the caller's reference
// stays pristine. The returned Result is a pure function of
// (profile, Options) — same inputs, byte-identical outcome.
func Run(profile *silicon.ServerProfile, o Options) (*Result, error) {
	o = o.withDefaults()
	if o.Years < 0 {
		return nil, fmt.Errorf("lifetime: negative horizon of %d year(s)", o.Years)
	}
	aged := profile.Clone()
	m, err := chip.New(aged, chip.Options{})
	if err != nil {
		return nil, err
	}

	root := rng.New(o.Seed)
	ov := NewOverlay(m, Params{}, float64(o.Years), root.Split("lifetime/drift"))
	ctl := fsp.NewController(m)
	cli := fsp.NewClient(fsp.NewLoopback(fsp.NewSession(ctl)), fsp.ClientOptions{})

	cores := m.AllCores()
	labels := make([]string, len(cores))
	for i, c := range cores {
		labels[i] = c.Profile.Label
	}

	res := &Result{Years: o.Years, SentinelOff: o.SentinelOff}
	res.Cores = make([]CoreReport, len(cores))

	// The day-one deployment and the sentinel's bounded online re-tunes
	// share one search configuration. StressTestCore consumes it
	// verbatim (Deploy normalizes for its own callers), so every field
	// it needs is set here: it rejects an empty battery or zero passes.
	// Run arms no trial fault, so no trial can fail transiently and
	// none is retried.
	tuneOpts := tuning.Options{Passes: 3, RunsPerConfig: 4, Battery: workload.TestTimeSuite()}

	// Day one: fine-tune every core to its stress limit through the
	// operator plane, exactly as the paper deploys.
	deploySrc := root.Split("lifetime/deploy")
	for i, label := range labels {
		lim, err := tuning.StressTestCore(m, label, tuneOpts, deploySrc.SplitIndex("core", i))
		if err != nil {
			return nil, fmt.Errorf("lifetime: deploy %s: %w", label, err)
		}
		if err := cli.SetMode(label, "atm"); err != nil {
			return nil, err
		}
		if err := cli.SetCPM(label, lim); err != nil {
			return nil, err
		}
		res.Cores[i].Core = label
		res.Cores[i].StartReduction = lim
	}
	startMargins, err := cli.Margins()
	if err != nil {
		return nil, err
	}
	for i := range res.Cores {
		res.Cores[i].StartMargin = startMargins[i].Sigma
	}

	act := &actuator{m: m, cli: cli, tune: tuneOpts, src: root.Split("lifetime/retune")}
	var snt *sentinel.Sentinel
	if !o.SentinelOff {
		snt = sentinel.New(labels, act, o.Obs, o.Trace)
	}

	var (
		trialSrc      = root.Split("lifetime/trials")
		trialCounter  *obs.Counter
		failCounter   *obs.Counter
		ambientGauge  *obs.Gauge
		failuresByIdx = make([]int, len(cores))
	)
	if o.Obs != nil {
		trialCounter = o.Obs.Counter("lifetime_trials_total")
		failCounter = o.Obs.Counter("lifetime_failures_total")
		ambientGauge = o.Obs.Gauge("lifetime_ambient_c")
	}

	record := func(ev Event) {
		if len(res.Timeline) < timelineCap {
			res.Timeline = append(res.Timeline, ev)
		} else {
			res.TimelineTruncated = true
		}
	}

	epochs := int(math.Round(float64(o.Years) * HoursPerYear / epochHours))
	res.Epochs = epochs
	active := make([]bool, len(cores))
	for e := 0; e < epochs; e++ {
		tH := float64(e+1) * epochHours
		// The machine does real work 08:00–20:00 every day; nights it
		// idles. Active cores accumulate HCI stress and take trials.
		hour := hourOfDay(tH)
		working := hour > 8 && hour <= 20
		for i, c := range cores {
			active[i] = working && !c.Gated() && c.Mode() == chip.ModeATM
		}
		ov.Advance(epochHours, active)
		ctl.Invalidate()
		if ambientGauge != nil {
			ambientGauge.Set(ov.AmbientAt(tH))
		}

		// Sentinel pass first: one margin sample per core per epoch,
		// through the operator plane. Sampling before the epoch's
		// trials matters — the margin register is a solved model
		// quantity that steps down the instant the aged deterministic
		// limit crosses the core's setting, so an immediate step-back
		// here protects the very trials that follow.
		if snt != nil {
			ms, err := cli.Margins()
			if err != nil {
				return nil, fmt.Errorf("lifetime: epoch %d margins: %w", e, err)
			}
			for i := range ms {
				// The sentinel supervises the ATM loop; a core parked
				// at static margin or gated off is out of it, and its
				// register (computed from the CPM envelope) no longer
				// describes a live control loop.
				if cores[i].Gated() || cores[i].Mode() != chip.ModeATM {
					continue
				}
				if !snt.Observe(i, ms[i].Sigma) {
					continue
				}
				ev := snt.Act(i)
				switch ev.Action {
				case sentinel.ActionNone:
					continue
				case sentinel.ActionStepBack:
					res.StepBacks++
					res.Cores[i].StepBacks++
					record(Event{Epoch: e, Hours: tH, Core: ev.Core, Kind: EventStepBack, Reduction: ev.Reduction})
				case sentinel.ActionRetune:
					res.Retunes++
					res.Cores[i].Retunes++
					record(Event{Epoch: e, Hours: tH, Core: ev.Core, Kind: EventRetune, Reduction: ev.Reduction})
				case sentinel.ActionStatic:
					res.Statics++
					res.Cores[i].Static = true
					record(Event{Epoch: e, Hours: tH, Core: ev.Core, Kind: EventStatic})
				case sentinel.ActionQuarantine:
					res.Quarantines++
					res.Cores[i].Quarantined = true
					record(Event{Epoch: e, Hours: tH, Core: ev.Core, Kind: EventQuarantine})
				}
				if ev.Err != nil && len(res.Timeline) > 0 {
					res.Timeline[len(res.Timeline)-1].Detail = ev.Err.Error()
				}
			}
			// Interventions may have gated or re-moded cores: refresh
			// the activity mask before dispatching work.
			for i, c := range cores {
				active[i] = active[i] && !c.Gated() && c.Mode() == chip.ModeATM
			}
		}

		// Production trials: one per active core per epoch.
		for i, label := range labels {
			if !active[i] {
				continue
			}
			w := &workMix[i%len(workMix)]
			cores[i].SetWorkload(*w)
			tr, err := m.RunCoreTrialRetry(cores[i], w, trialSrc.SplitLabel(trialLabel, e*len(cores)+i), 0)
			if err != nil {
				return nil, fmt.Errorf("lifetime: epoch %d trial on %s: %w", e, label, err)
			}
			res.Trials++
			if trialCounter != nil {
				trialCounter.Inc()
			}
			if !tr.OK() {
				res.Failures++
				failuresByIdx[i]++
				if failCounter != nil {
					failCounter.Inc()
				}
				record(Event{Epoch: e, Hours: tH, Core: label, Kind: EventFailure,
					Reduction: cores[i].Reduction(), Detail: tr.Failure.String()})
			}
		}

	}

	endMargins, err := cli.Margins()
	if err != nil {
		return nil, err
	}
	for i := range res.Cores {
		res.Cores[i].EndMargin = endMargins[i].Sigma
		res.Cores[i].EndReduction = cores[i].Reduction()
		res.Cores[i].AgeFrac = ov.CoreAge(i)
		res.Cores[i].Failures = failuresByIdx[i]
	}
	sort.SliceStable(res.Timeline, func(a, b int) bool { return res.Timeline[a].Epoch < res.Timeline[b].Epoch })
	res.Safe = res.Failures == 0
	return res, nil
}
