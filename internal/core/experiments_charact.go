package core

import (
	"fmt"
	"sort"

	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/units"
	"repro/internal/workload"
)

// idleSupply returns each chip's supply with the whole machine idle at
// the current CPM configuration.
func (s *Suite) idleSupply() (map[string]units.Volt, error) {
	st, err := s.M.Solve()
	if err != nil {
		return nil, err
	}
	out := map[string]units.Volt{}
	for _, cs := range st.Chips {
		out[cs.Label] = cs.Supply
	}
	return out, nil
}

// Fig1 regenerates the headline comparison: the frequency a core gets
// under (a) the chip-wide static margin, (b) per-core static ⟨v,f⟩
// setpoints, (c) default ATM, and (d) fine-tuned ATM — each with its
// best-case (idle) and worst-case (maximum DC drop) bounds.
func (s *Suite) Fig1() (*report.Artifact, error) {
	dep, err := s.Deployment()
	if err != nil {
		return nil, err
	}

	// Per-core static setpoints from the silicon model.
	var stMin, stMax units.MHz = 100000, 0
	for _, c := range s.M.Profile().AllCores() {
		f := c.StaticPerCoreFreq()
		stMin = units.Min(stMin, f)
		stMax = units.Max(stMax, f)
	}

	// Default ATM: reduction 0 everywhere; idle vs all-daxpy corners.
	s.M.ResetAll()
	idleSt, err := s.M.Solve()
	if err != nil {
		return nil, err
	}
	for _, core := range s.M.AllCores() {
		core.SetWorkload(workload.Daxpy)
	}
	loadSt, err := s.M.Solve()
	if err != nil {
		return nil, err
	}
	s.M.ResetAll()
	var defIdleMax, defLoadMin units.MHz = 0, 100000
	for _, cs := range idleSt.Chips {
		for _, c := range cs.Cores {
			defIdleMax = units.Max(defIdleMax, c.Freq)
		}
	}
	for _, cs := range loadSt.Chips {
		for _, c := range cs.Cores {
			defLoadMin = units.Min(defLoadMin, c.Freq)
		}
	}

	// Fine-tuned: the deployment's idle/loaded corners.
	var ftIdleMax, ftIdleMin, ftLoadMin units.MHz = 0, 100000, 100000
	for _, cfg := range dep.Configs {
		ftIdleMax = units.Max(ftIdleMax, cfg.IdleFreq)
		ftIdleMin = units.Min(ftIdleMin, cfg.IdleFreq)
		ftLoadMin = units.Min(ftLoadMin, cfg.LoadedFreq)
	}

	t := &report.Table{
		Title:  "Fig. 1 — frequency bounds by margin scheme",
		Header: []string{"scheme", "worst case (MHz)", "best case (MHz)"},
		Note: "paper shape: 4.2 GHz flat; ~4.5 max static per-core; 4.4–4.6 default ATM; " +
			"fine-tuned spans ~4.5 loaded to ~5.0 idle",
	}
	t.AddRow("chip-wide static margin", report.F(float64(silicon.FStatic), 0), report.F(float64(silicon.FStatic), 0))
	t.AddRow("per-core static <v,f>", report.F(float64(stMin), 0), report.F(float64(stMax), 0))
	t.AddRow("default ATM", report.F(float64(defLoadMin), 0), report.F(float64(defIdleMax), 0))
	t.AddRow("fine-tuned ATM", report.F(float64(ftLoadMin), 0), report.F(float64(ftIdleMax), 0))

	return &report.Artifact{
		ID:      "fig1",
		Caption: "Fine-tuning ATM exposes process and voltage variation and lifts frequency beyond per-core static setpoints",
		Tables:  []*report.Table{t},
	}, nil
}

// Fig4b regenerates the preset inserted-delay chart: the manufacturer
// calibration values per core, whose ~3x spread indicates significant
// process variation.
func (s *Suite) Fig4b() (*report.Artifact, error) {
	t := &report.Table{
		Title:  "Fig. 4b — pre-set CPM inserted delay per core",
		Header: []string{"core", "preset taps"},
		Note:   "paper shape: presets range ~7–20, nearly 3x, fast cores deepest",
	}
	lo, hi := 1<<30, 0
	for _, c := range s.M.Profile().AllCores() {
		t.AddRow(c.Label, fmt.Sprintf("%d", c.PresetTaps))
		if c.PresetTaps < lo {
			lo = c.PresetTaps
		}
		if c.PresetTaps > hi {
			hi = c.PresetTaps
		}
	}
	t.Note += fmt.Sprintf("; regenerated range %d–%d", lo, hi)
	return &report.Artifact{
		ID:      "fig4b",
		Caption: "Wide variation of pre-set inserted delays indicates significant process variation",
		Tables:  []*report.Table{t},
	}, nil
}

// fig5Cores are the example cores whose reduction sweeps the figure
// shows; they cover the non-linearity anecdotes of Sec. IV-C.
var fig5Cores = []string{"P0C0", "P0C4", "P1C3", "P1C6"}

// Fig5 regenerates the frequency-vs-reduction sweep for the example
// cores at the idle operating point.
func (s *Suite) Fig5() (*report.Artifact, error) {
	s.M.ResetAll()
	supply, err := s.idleSupply()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Fig. 5 — settled frequency (MHz) vs CPM delay reduction, system idle",
		Header: append([]string{"reduction"}, fig5Cores...),
		Note:   "paper shape: ~4.6 GHz at 0 for all; non-uniform per-step jumps; >5 GHz at deep reductions",
	}
	maxIdle := 0
	for _, label := range fig5Cores {
		idle, _, _, _, ok := silicon.ReferenceTableI(label)
		if ok && idle > maxIdle {
			maxIdle = idle
		}
	}
	for r := 0; r <= maxIdle; r++ {
		row := []string{fmt.Sprintf("%d", r)}
		for _, label := range fig5Cores {
			c := s.M.Profile().FindCore(label)
			if c == nil {
				return nil, fmt.Errorf("core: no core %s", label)
			}
			idle, _, _, _, _ := silicon.ReferenceTableI(label)
			if r > idle {
				row = append(row, "-")
				continue
			}
			f, err := c.SettledFreq(r, supply[label[:2]])
			if err != nil {
				return nil, err
			}
			row = append(row, report.F(float64(f), 0))
		}
		t.AddRow(row...)
	}
	return &report.Artifact{
		ID:      "fig5",
		Caption: "Reducing the CPM inserted delay makes the control loop perceive more margin and raise frequency",
		Tables:  []*report.Table{t},
	}, nil
}

// Fig7 regenerates the idle-limit distributions: per core, the fraction
// of trials at each observed safe configuration and the frequency at the
// idle limit.
func (s *Suite) Fig7() (*report.Artifact, error) {
	rep, err := s.Report()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Fig. 7 — idle-limit distribution and frequency per core",
		Header: []string{"core", "idle limit", "distribution (reduction:frac)", "freq at limit (MHz)"},
		Note:   "paper shape: distributions cover ≤2 configurations; most cores exceed 5 GHz",
	}
	for _, c := range rep.Cores {
		dist := ""
		for i, v := range c.Idle.Hist.Support() {
			if i > 0 {
				dist += " "
			}
			dist += fmt.Sprintf("%d:%.2f", v, c.Idle.Hist.Frac(v))
		}
		t.AddRow(c.Core, fmt.Sprintf("%d", c.Idle.Limit), dist, report.F(float64(c.IdleFreq), 0))
	}
	return &report.Artifact{
		ID:      "fig7",
		Caption: "The most aggressive safe CPM delay reduction distributes over a narrow range",
		Tables:  []*report.Table{t},
	}, nil
}

// Table1 regenerates the paper's Table I and diffs it against the
// published values.
func (s *Suite) Table1() (*report.Artifact, error) {
	rep, err := s.Report()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Table I — ATM reconfiguration limits (measured vs paper)",
		Header: []string{"core", "idle", "uBench", "thread normal", "thread worst", "matches paper"},
	}
	mismatches := 0
	for _, row := range rep.TableI() {
		pi, pu, pn, pw, ok := silicon.ReferenceTableI(row.Core)
		match := ok && row.Idle == pi && row.UBench == pu && row.Normal == pn && row.Worst == pw
		if !match {
			mismatches++
		}
		t.AddRow(row.Core,
			fmt.Sprintf("%d", row.Idle), fmt.Sprintf("%d", row.UBench),
			fmt.Sprintf("%d", row.Normal), fmt.Sprintf("%d", row.Worst),
			fmt.Sprintf("%v", match))
	}
	t.Note = fmt.Sprintf("%d/%d rows match the published Table I exactly", len(rep.TableI())-mismatches, len(rep.TableI()))
	return &report.Artifact{
		ID:      "table1",
		Caption: "ATM reconfiguration limits under system idle, uBench, and real-world applications",
		Tables:  []*report.Table{t},
	}, nil
}

// Fig8 regenerates the uBench rollback distributions for the cores whose
// idle limit does not survive the micro-benchmarks.
func (s *Suite) Fig8() (*report.Artifact, error) {
	rep, err := s.Report()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Fig. 8 — uBench rollback from the idle limit (failing cores only)",
		Header: []string{"core", "idle limit", "uBench limit", "rollback distribution (steps:frac)"},
		Note:   "paper shape: six cores roll back, by one to three steps",
	}
	failing := 0
	for _, c := range rep.Cores {
		if c.Idle.Limit == c.UBenchLimit {
			continue
		}
		failing++
		dist := ""
		for i, v := range c.UBenchRollback.Support() {
			if i > 0 {
				dist += " "
			}
			dist += fmt.Sprintf("%d:%.2f", v, c.UBenchRollback.Frac(v))
		}
		t.AddRow(c.Core, fmt.Sprintf("%d", c.Idle.Limit), fmt.Sprintf("%d", c.UBenchLimit), dist)
	}
	t.Note += fmt.Sprintf("; regenerated: %d cores", failing)
	return &report.Artifact{
		ID:      "fig8",
		Caption: "Some cores' idle limits fail to capture long delay paths exercised by uBench",
		Tables:  []*report.Table{t},
	}, nil
}

// Fig9 regenerates the x264-vs-gcc rollback comparison.
func (s *Suite) Fig9() (*report.Artifact, error) {
	rep, err := s.Report()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "Fig. 9 — CPM delay rollback from the uBench limit: x264 vs gcc",
		Header: []string{"core", "x264 avg rollback", "gcc avg rollback"},
		Note:   "paper shape: x264 demands consistently larger rollback than gcc",
	}
	for _, c := range rep.Cores {
		t.AddRow(c.Core, report.F(c.AppRollbackMean["x264"], 2), report.F(c.AppRollbackMean["gcc"], 2))
	}
	return &report.Artifact{
		ID:      "fig9",
		Caption: "x264 stresses ATM more heavily and needs a more conservative CPM configuration than gcc",
		Tables:  []*report.Table{t},
	}, nil
}

// Fig10 regenerates the full rollback heatmap: applications (rows,
// most stressful first) × cores (columns, most robust last).
func (s *Suite) Fig10() (*report.Artifact, error) {
	rep, err := s.Report()
	if err != nil {
		return nil, err
	}
	cores := rep.RobustnessRank() // most vulnerable first, most robust last
	apps := append([]workload.Profile(nil), workload.Realistic()...)
	sort.Slice(apps, func(i, j int) bool { return apps[i].StressScore > apps[j].StressScore })

	t := &report.Table{
		Title:  "Fig. 10 — average CPM rollback from the uBench limit per <app, core>",
		Header: append([]string{"app \\ core"}, cores...),
		Note:   "paper shape: x264/ferret rows on top need most rollback; right-hand cores are robust to everything",
	}
	for _, app := range apps {
		row := []string{app.Name}
		for _, label := range cores {
			c, ok := rep.Core(label)
			if !ok {
				return nil, fmt.Errorf("core: missing report for %s", label)
			}
			row = append(row, report.F(c.AppRollbackMean[app.Name], 1))
		}
		t.AddRow(row...)
	}
	return &report.Artifact{
		ID:      "fig10",
		Caption: "Application stress is consistent across cores; core robustness is consistent across applications",
		Tables:  []*report.Table{t},
	}, nil
}
