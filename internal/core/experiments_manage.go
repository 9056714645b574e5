package core

import (
	"fmt"

	"repro/internal/chip"
	"repro/internal/manage"
	"repro/internal/report"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Fig2 regenerates the SqueezeNet latency study.
func (s *Suite) Fig2() (*report.Artifact, error) {
	mgr, err := s.Manager()
	if err != nil {
		return nil, err
	}
	pts, err := mgr.LatencyStudy(workload.MustByName("squeezenet"))
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Fig. 2 — SqueezeNet inference latency by margin setting and schedule",
		Header: []string{"setting", "core", "freq (MHz)", "latency (ms)", "gain vs static"},
		Note:   "paper shape: 80 ms static; fine-tuned improves 7.5% (worst schedule) to ~15% (best, ~68 ms)",
	}
	for _, p := range pts {
		t.AddRow(p.Name, p.Core, report.F(float64(p.Freq), 0),
			report.F(p.LatencyMs, 1), report.Pct(p.Perf-1))
	}
	return &report.Artifact{
		ID:      "fig2",
		Caption: "Aggressive fine-tuning plus friendly co-location cuts inference latency",
		Tables:  []*report.Table{t},
	}, nil
}

// Fig11 regenerates the deployed frequencies after the test-time stress
// procedure, at the limit and with one and two steps of safety rollback.
func (s *Suite) Fig11() (*report.Artifact, error) {
	dep, err := s.Deployment()
	if err != nil {
		return nil, err
	}
	// Rolled-back deployments on fresh machines (the suite machine keeps
	// its limit deployment).
	depRB := map[int]*tuning.Deployment{}
	for _, rb := range []int{1, 2} {
		m, err := chip.New(s.M.Profile(), chip.Options{})
		if err != nil {
			return nil, err
		}
		d, err := tuning.Deploy(m, tuning.Options{Rollback: rb})
		if err != nil {
			return nil, err
		}
		depRB[rb] = d
	}

	t := &report.Table{
		Title:  "Fig. 11 — idle frequency (MHz) after test-time stress procedure",
		Header: []string{"core", "stress limit", "at limit", "rollback 1", "rollback 2"},
		Note: fmt.Sprintf("paper shape: >200 MHz inter-core differential at the limit "+
			"(regenerated: %.0f MHz); rollback keeps the variation trend", dep.SpeedDifferentialMHz()),
	}
	for _, cfg := range dep.Configs {
		r1, _ := depRB[1].Config(cfg.Core)
		r2, _ := depRB[2].Config(cfg.Core)
		t.AddRow(cfg.Core, fmt.Sprintf("%d", cfg.StressLimit),
			report.F(float64(cfg.IdleFreq), 0),
			report.F(float64(r1.IdleFreq), 0),
			report.F(float64(r2.IdleFreq), 0))
	}
	return &report.Artifact{
		ID:      "fig11",
		Caption: "The stress-test procedure exposes speed variability; optional rollback adds safety",
		Tables:  []*report.Table{t},
	}, nil
}

// fig12aCores are the example cores whose power sweeps the figure shows.
var fig12aCores = []string{"P0C0", "P0C3", "P0C7", "P1C6"}

// Fig12a regenerates the Eq. 1 frequency predictor: per-core sample
// sweeps of (chip power, frequency) plus the fitted line.
func (s *Suite) Fig12a() (*report.Artifact, error) {
	mgr, err := s.Manager()
	if err != nil {
		return nil, err
	}

	// Sweep samples: hold the example core busy, step co-runner load.
	samples := &report.Table{
		Title:  "Fig. 12a samples — core frequency (MHz) vs total chip power (W)",
		Header: append([]string{"chip power (W)"}, fig12aCores...),
	}
	s.M.ResetAll()
	loads := []struct {
		w workload.Profile
		n int
	}{
		{workload.Idle, 0}, {workload.Stream, 3}, {workload.Stream, 7},
		{workload.Coremark, 5}, {workload.Daxpy, 3}, {workload.Daxpy, 5}, {workload.Daxpy, 7},
	}
	// Program the deployed configuration for the sweep.
	dep, err := s.Deployment()
	if err != nil {
		return nil, err
	}
	for _, cfg := range dep.Configs {
		if err := s.M.ProgramCPM(cfg.Core, cfg.Reduction); err != nil {
			return nil, err
		}
	}
	for _, load := range loads {
		row := make([]string, 0, len(fig12aCores)+1)
		var power float64
		for _, label := range fig12aCores {
			ch, err := s.M.ChipOf(label)
			if err != nil {
				return nil, err
			}
			placed := 0
			for _, c := range ch.Cores {
				switch {
				case c.Profile.Label == label:
					c.SetWorkload(workload.Coremark)
				case placed < load.n:
					c.SetWorkload(load.w)
					placed++
				default:
					c.SetWorkload(workload.Idle)
				}
			}
			st, err := s.M.Solve()
			if err != nil {
				return nil, err
			}
			cs, err := st.CoreState(label)
			if err != nil {
				return nil, err
			}
			chs, err := st.ChipState(ch.Profile.Label)
			if err != nil {
				return nil, err
			}
			power = float64(chs.Power)
			row = append(row, report.F(float64(cs.Freq), 0))
		}
		samples.Rows = append(samples.Rows, append([]string{report.F(power, 1)}, row...))
	}
	s.M.ResetAll()

	fits := &report.Table{
		Title:  "Fig. 12a fits — f = −k'·P + b per core",
		Header: []string{"core", "k' (MHz/W)", "b (MHz)", "R²"},
		Note:   "paper shape: each additional watt degrades frequency by about two MHz; fits are linear",
	}
	for _, c := range s.M.AllCores() {
		fp := mgr.Preds.Freq[c.Profile.Label]
		fits.AddRow(c.Profile.Label, report.F(fp.MHzPerWatt(), 2),
			report.F(fp.Fit.Intercept, 0), report.F(fp.Fit.R2, 4))
	}
	return &report.Artifact{
		ID:      "fig12a",
		Caption: "ATM fine-tuned core frequency is linear in total chip power (Eq. 1)",
		Tables:  []*report.Table{samples, fits},
	}, nil
}

// fig12bApps are the applications whose performance lines the figure
// shows: the compute-bound and memory-bound extremes plus two criticals.
var fig12bApps = []string{"x264", "squeezenet", "gcc", "mcf"}

// Fig12b regenerates the performance-vs-frequency predictor lines.
func (s *Suite) Fig12b() (*report.Artifact, error) {
	mgr, err := s.Manager()
	if err != nil {
		return nil, err
	}
	base := float64(mgr.Preds.Base)
	lines := &report.Table{
		Title:  "Fig. 12b — relative performance vs core frequency",
		Header: append([]string{"freq (MHz)"}, fig12bApps...),
		Note:   "paper shape: linear; memory-bound mcf nearly flat, compute-bound x264 steepest",
	}
	for f := base; f <= base*1.22; f += 200 {
		row := []string{report.F(f, 0)}
		for _, name := range fig12bApps {
			row = append(row, report.F(workload.MustByName(name).RelPerf(f, base), 3))
		}
		lines.AddRow(row...)
	}
	fits := &report.Table{
		Title:  "Fig. 12b fits — perf = slope·f + intercept",
		Header: []string{"app", "slope (per GHz)", "R²"},
	}
	for _, name := range fig12bApps {
		pp := mgr.Preds.Perf[name]
		fits.AddRow(name, report.F(pp.Fit.Slope*1000, 3), report.F(pp.Fit.R2, 4))
	}
	return &report.Artifact{
		ID:      "fig12b",
		Caption: "Application performance scales linearly with frequency, slope set by memory behaviour",
		Tables:  []*report.Table{lines, fits},
	}, nil
}

// Table2 regenerates the workload classification.
func (s *Suite) Table2() (*report.Artifact, error) {
	t := &report.Table{
		Title:  "Table II — critical/background classification by memory interference",
		Header: []string{"workload", "role", "memory intensive", "suite"},
	}
	for _, p := range workload.Realistic() {
		t.AddRow(p.Name, string(p.Role), fmt.Sprintf("%v", p.MemIntensive()), string(p.Suite))
	}
	return &report.Artifact{
		ID:      "table2",
		Caption: "Classifying critical and background applications by memory-subsystem interference",
		Tables:  []*report.Table{t},
	}, nil
}

// fig14Scenarios is the scenario ladder of the evaluation.
var fig14Scenarios = []manage.Scenario{
	manage.ScenarioStaticMargin,
	manage.ScenarioDefaultATM,
	manage.ScenarioFineTunedUnmanaged,
	manage.ScenarioManagedMax,
	manage.ScenarioManagedBalanced,
}

// fig14QoSTarget is the balanced-mode improvement goal, the paper's
// ≥10% over the static margin.
const fig14QoSTarget = 0.10

// Fig14 regenerates the management evaluation: critical-application
// improvement over the static margin for every ⟨critical:background⟩
// pair under every scenario.
func (s *Suite) Fig14() (*report.Artifact, error) {
	mgr, err := s.Manager()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Fig. 14 — critical application improvement over static margin",
		Header: []string{"critical:background", "default ATM", "fine-tuned unmanaged",
			"managed max", "managed balanced", "balanced bg setting", "QoS ≥10% met"},
		Note: "paper shape: default ATM ≈6.1%, unmanaged fine-tuned ≈10.2%, managed-max ≈15.2%, balanced guarantees ≥10%",
	}
	sums := map[manage.Scenario]float64{}
	pairs := manage.Fig14Pairs()
	for _, pair := range pairs {
		row := []string{pair.Label()}
		var balanced manage.Evaluation
		for _, sc := range fig14Scenarios {
			ev, err := mgr.Evaluate(sc, pair, fig14QoSTarget)
			if err != nil {
				return nil, err
			}
			sums[sc] += ev.Improvement()
			switch sc {
			case manage.ScenarioStaticMargin:
				// baseline; no column
			case manage.ScenarioManagedBalanced:
				balanced = ev
				row = append(row, report.Pct(ev.Improvement()))
			default:
				row = append(row, report.Pct(ev.Improvement()))
			}
		}
		row = append(row, balanced.BackgroundSetting, fmt.Sprintf("%v", balanced.MeetsQoS))
		t.AddRow(row...)
	}
	n := float64(len(pairs))
	t.AddRow("AVERAGE",
		report.Pct(sums[manage.ScenarioDefaultATM]/n),
		report.Pct(sums[manage.ScenarioFineTunedUnmanaged]/n),
		report.Pct(sums[manage.ScenarioManagedMax]/n),
		report.Pct(sums[manage.ScenarioManagedBalanced]/n),
		"", "")
	return &report.Artifact{
		ID:      "fig14",
		Caption: "Managing the fine-tuned system maximizes or guarantees critical application performance",
		Tables:  []*report.Table{t},
	}, nil
}
