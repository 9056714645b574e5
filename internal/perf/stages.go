package perf

import (
	"fmt"

	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/cpm"
	"repro/internal/dpll"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pdn"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/tuning"
	"repro/internal/units"
	"repro/internal/workload"
)

// Sinks defeat dead-code elimination of the benched kernels. They are
// written, never read.
var (
	sinkPs    units.Picosecond
	sinkVolt  units.Volt
	sinkF     float64
	sinkRead  cpm.Reading
	sinkTrial chip.TrialResult
	sinkState chip.State
)

// StageGroups are the selectable -set values, in run order.
var StageGroups = []string{"kernel", "e2e", "fleet", "dc", "lifetime"}

// Stages builds the benchmark plan. quick selects the CI-sized
// iteration counts; the stage set itself is identical, so quick and
// full artifacts differ only in plan size (and the comparator refuses
// to mix them). groups filters by Stage.Group; empty means all.
func Stages(quick bool, groups ...string) ([]Stage, error) {
	want := map[string]bool{}
	for _, g := range groups {
		ok := false
		for _, known := range StageGroups {
			if g == known {
				ok = true
			}
		}
		if !ok {
			return nil, fmt.Errorf("perf: unknown stage group %q (have %v)", g, StageGroups)
		}
		want[g] = true
	}
	dcs, err := dcStages(quick)
	if err != nil {
		return nil, err
	}
	var all []Stage
	for _, stages := range [][]Stage{kernelStages(quick), e2eStages(quick), fleetStages(quick), dcs, lifetimeStages(quick)} {
		all = append(all, stages...)
	}
	if len(want) == 0 {
		return all, nil
	}
	var out []Stage
	for _, st := range all {
		if want[st.Group] {
			out = append(out, st)
		}
	}
	return out, nil
}

// pick returns the plan-sized iteration count.
func pick(quick bool, quickN, fullN int) int {
	if quick {
		return quickN
	}
	return fullN
}

// kernelStages benches every //atm:hotpath kernel the control loop is
// built from, and the steady-state solve the dc intake calibrates its
// predictors with. All are single-goroutine and alloc-stable: their
// allocs/op rows gate in CI, and the hot ones must stay at zero.
func kernelStages(quick bool) []Stage {
	m := chip.NewReference()
	core := m.AllCores()[0]
	vref := silicon.VRef
	cycle := core.Profile.DefaultFreq().CycleTime()
	pd := pdn.DefaultParams()

	// The trial stages run on the machine built here, so they time the
	// trial and not its setup. uBench trials take the linear branch of
	// the silicon requirement; application trials take the rollback
	// branch, which the most stressful application on a vulnerable core
	// exercises in full.
	ubench := workload.UBench()[0]
	app := workload.Realistic()[0]
	for _, w := range workload.Realistic() {
		if w.StressScore > app.StressScore {
			app = w
		}
	}
	appCore := core
	for _, c := range m.AllCores() {
		if c.Profile.Vulnerability > 0 {
			appCore = c
			break
		}
	}
	trialStage := func(name, note, label string, w workload.Profile) Stage {
		return Stage{
			Name: name, Group: "kernel", AllocStable: true,
			Note:  note,
			Iters: pick(quick, 5_000, 50_000),
			Run: func(iters int) (int64, error) {
				src := rng.New(1)
				for i := 0; i < iters; i++ {
					res, err := m.RunTrial(label, w, src)
					if err != nil {
						return 0, err
					}
					sinkTrial = res
				}
				return int64(iters), nil
			},
		}
	}

	return []Stage{
		{
			Name: "cpm_site_delay", Group: "kernel", AllocStable: true,
			Note:  "one CPM site path delay at VRef (cpm.SiteDelay)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				mon := cpm.New(core.Profile)
				sites := len(core.Profile.SiteSkewPs)
				for i := 0; i < iters; i++ {
					sinkPs = mon.SiteDelay(i%sites, vref)
				}
				return int64(iters), nil
			},
		},
		{
			Name: "cpm_measure", Group: "kernel", AllocStable: true,
			Note:  "worst-of-five quantized slack measurement (cpm.Measure)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				mon := cpm.New(core.Profile)
				for i := 0; i < iters; i++ {
					sinkRead = mon.Measure(cycle, vref)
				}
				return int64(iters), nil
			},
		},
		{
			Name: "dpll_step", Group: "kernel", AllocStable: true,
			Note:  "one DPLL control interval: measure + slew (dpll.Step)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				loop := dpll.New(cpm.New(core.Profile), core.Profile.DefaultFreq())
				for i := 0; i < iters; i++ {
					sinkRead = loop.Step(vref)
				}
				return int64(iters), nil
			},
		},
		{
			Name: "pdn_steady_voltage", Group: "kernel", AllocStable: true,
			Note:  "DC operating point: loadline solve (pdn.SteadyVoltage)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					sinkVolt = pd.SteadyVoltage(units.Watt(40 + i%60))
				}
				return int64(iters), nil
			},
		},
		{
			Name: "pdn_step_response", Group: "kernel", AllocStable: true,
			Note:  "underdamped AC transient sample (pdn.StepResponse)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					sinkVolt = pdn.StepResponse(10, float64(i%1000)*1e-9)
				}
				return int64(iters), nil
			},
		},
		{
			Name: "pdn_first_droop", Group: "kernel", AllocStable: true,
			Note:  "worst first-droop magnitude (pdn.FirstDroopPeak + SyncFactor)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					sinkVolt = pdn.FirstDroopPeak(10 * pdn.SyncFactor(1+i%16))
					sinkF = pdn.UncoveredFraction(float64(1 + i%200))
				}
				return int64(iters), nil
			},
		},
		trialStage("chip_run_trial",
			"one seeded uBench trial, linear requirement branch (chip.RunTrial)",
			core.Profile.Label, ubench),
		trialStage("chip_run_trial_app",
			"one seeded trial of the most stressful app on a vulnerable core, rollback branch (chip.RunTrial)",
			appCore.Profile.Label, app),
		{
			Name: "chip_solve", Group: "kernel", AllocStable: true,
			Note:  "steady-state fixed point of the idle reference server (chip.Machine.Solve)",
			Iters: pick(quick, 2_000, 20_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					st, err := m.Solve()
					if err != nil {
						return 0, err
					}
					sinkState = st
				}
				return int64(iters), nil
			},
		},
	}
}

// e2eStages benches the paper's methodology end to end on the
// reference server, counting real trials through the obs plane so
// trials/sec means the same thing the ROADMAP's speed targets do. A
// fresh machine per op keeps iterations independent and deterministic.
func e2eStages(quick bool) []Stage {
	return []Stage{
		{
			Name: "characterize", Group: "e2e", AllocStable: true,
			Note:  "Sec. III-B characterization of the 16-core reference server",
			Iters: pick(quick, 1, 3),
			Run: func(iters int) (int64, error) {
				var trials int64
				for i := 0; i < iters; i++ {
					reg := obs.NewRegistry()
					mm := chip.NewReference()
					if _, err := charact.Characterize(mm, charact.Options{
						Trials: pick(quick, 1, 3),
						Obs:    reg,
					}); err != nil {
						return 0, err
					}
					trials += reg.Counter("atm_charact_runs_total").Value()
				}
				return trials, nil
			},
		},
		{
			Name: "tune", Group: "e2e", AllocStable: true,
			Note:  "Sec. VII-A stress-test deployment of the reference server",
			Iters: pick(quick, 1, 3),
			Run: func(iters int) (int64, error) {
				var trials int64
				for i := 0; i < iters; i++ {
					reg := obs.NewRegistry()
					mm := chip.NewReference()
					if _, err := tuning.Deploy(mm, tuning.Options{
						Passes: pick(quick, 1, 3),
						Obs:    reg,
					}); err != nil {
						return 0, err
					}
					trials += reg.Counter("atm_tune_runs_total").Value()
				}
				return trials, nil
			},
		},
	}
}

// fleetStages benches the campaign engine: a montecarlo sweep on one
// worker. The worker pool makes allocation counts scheduling-dependent,
// so the stage is alloc-unstable: its allocs land in the timing
// section only.
func fleetStages(quick bool) []Stage {
	n := pick(quick, 2, 8)
	return []Stage{{
		Name: "fleet_sequential", Group: "fleet", AllocStable: false,
		Note:  fmt.Sprintf("montecarlo sweep, %d generated server(s), 1 worker(s)", n),
		Iters: 1,
		Run: func(iters int) (int64, error) {
			var trials int64
			for i := 0; i < iters; i++ {
				reg := obs.NewRegistry()
				res, err := fleet.Run(fleet.MonteCarlo(n, 1), fleet.Options{
					Workers: 1,
					Obs:     reg,
				})
				if err != nil {
					return 0, err
				}
				if failed := res.Failed(); len(failed) > 0 {
					return 0, fmt.Errorf("fleet stage: %d job(s) failed: %v", len(failed), failed)
				}
				trials += reg.Counter("fleet_jobs_completed_total").Value()
			}
			return trials, nil
		},
	}}
}
