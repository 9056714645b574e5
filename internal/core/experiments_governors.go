package core

import (
	"fmt"

	"repro/internal/chip"
	"repro/internal/manage"
	"repro/internal/report"
	"repro/internal/rng"
)

// ExtGovernors evaluates the Fig. 13 policy knob end to end: the same
// managed-max schedule under the default (stress-test limit),
// conservative (robust cores + safety rollback) and aggressive
// (profiled per-application best-fit) governors — measuring both the
// performance each buys and the empirical failure risk each carries,
// checked by re-running correctness trials at the governed
// configurations.
func (s *Suite) ExtGovernors() (*report.Artifact, error) {
	mgr, err := s.Manager()
	if err != nil {
		return nil, err
	}
	rep, err := s.Report()
	if err != nil {
		return nil, err
	}
	pairs := manage.Fig14Pairs()

	perf := &report.Table{
		Title:  "Governor comparison — managed-max critical improvement",
		Header: []string{"pair", "conservative", "default", "aggressive"},
		Note:   "aggressive uses each application's own profiled limit; conservative adds rollback on non-robust cores",
	}
	sums := map[manage.Governor]float64{}
	govs := []manage.Governor{manage.GovernorConservative, manage.GovernorDefault, manage.GovernorAggressive}
	for _, pair := range pairs {
		row := []string{pair.Label()}
		for _, g := range govs {
			mgr.Governor = g
			ev, err := mgr.Evaluate(manage.ScenarioManagedMax, pair, 0)
			if err != nil {
				mgr.Governor = manage.GovernorDefault
				return nil, err
			}
			sums[g] += ev.Improvement() / float64(len(pairs))
			// Order columns conservative/default/aggressive.
			row = append(row, report.Pct(ev.Improvement()))
		}
		perf.AddRow(row...)
	}
	mgr.Governor = manage.GovernorDefault
	perf.AddRow("AVERAGE",
		report.Pct(sums[manage.GovernorConservative]),
		report.Pct(sums[manage.GovernorDefault]),
		report.Pct(sums[manage.GovernorAggressive]))

	// Risk check: re-run correctness trials at each governor's critical
	// configuration for (a) the profiled application and (b) an
	// unprofiled stand-in (the profiled app's stress +10%) — the
	// aggressive governor is only safe for what was profiled.
	risk := &report.Table{
		Title:  "Failure trials at the governed configuration (most vulnerable core, 200 runs each)",
		Header: []string{"governor", "profiled app failures", "unprofiled (+0.25 stress) failures"},
		Note:   "the aggressive governor's headroom evaporates on unprofiled behaviour — the paper's reason to gate it on profiling",
	}
	pair := pairs[0] // squeezenet:lu_cb
	// The risk shows on the most application-vulnerable core: the one
	// with the largest uBench → thread-worst rollback.
	fastest := rep.Cores[0].Core
	worstV := -1
	for _, cr := range rep.Cores {
		if v := cr.UBenchLimit - cr.ThreadWorst; v > worstV {
			worstV = v
			fastest = cr.Core
		}
	}
	src := rng.New(31)
	for _, g := range govs {
		cr, ok := rep.Core(fastest)
		if !ok {
			return nil, fmt.Errorf("core: no characterization for %s", fastest)
		}
		red := 0
		switch g {
		case manage.GovernorDefault:
			cfg, _ := s.dep.Config(fastest)
			red = cfg.Reduction
		case manage.GovernorConservative:
			cfg, _ := s.dep.Config(fastest)
			red = cfg.Reduction
			if cr.ThreadWorst != cr.UBenchLimit { // not robust
				red -= 2
				if red < 0 {
					red = 0
				}
			}
		case manage.GovernorAggressive:
			red = cr.AppLimit[pair.Critical.Name]
		}
		if err := s.M.ProgramCPM(fastest, red); err != nil {
			return nil, err
		}
		failProf, failUnprof := 0, 0
		unprofiled := pair.Critical
		unprofiled.Name = pair.Critical.Name + "-v2"
		unprofiled.StressScore = min1(pair.Critical.StressScore + 0.25)
		for i := 0; i < 200; i++ {
			f1, err := s.M.RunTrial(fastest, pair.Critical, src.SplitIndex(g.String()+"/p", i))
			if err != nil {
				return nil, err
			}
			if f1 != chip.FailureNone {
				failProf++
			}
			f2, err := s.M.RunTrial(fastest, unprofiled, src.SplitIndex(g.String()+"/u", i))
			if err != nil {
				return nil, err
			}
			if f2 != chip.FailureNone {
				failUnprof++
			}
		}
		risk.AddRow(g.String(), fmt.Sprintf("%d/200", failProf), fmt.Sprintf("%d/200", failUnprof))
	}
	if err := s.M.ProgramCPM(fastest, 0); err != nil {
		return nil, err
	}

	return &report.Artifact{
		ID:      "ext-governors",
		Caption: "The governor ladder trades performance against robustness to unprofiled behaviour",
		Tables:  []*report.Table{perf, risk},
	}, nil
}

func min1(v float64) float64 {
	if v > 1 {
		return 1
	}
	return v
}
