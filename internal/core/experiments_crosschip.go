package core

import (
	"repro/internal/chip"
	"repro/internal/manage"
	"repro/internal/report"
	"repro/internal/silicon"
)

// ExtCrossChip evaluates the scheduling move the paper's single-chip
// co-location leaves on the table: the two sockets have separate power
// rails, so migrating the background jobs to the other chip removes the
// DC-drop interference entirely — the critical application gets
// idle-chip frequency on its socket while the co-runners keep full
// fine-tuned ATM speed on theirs. The cost is whatever cross-socket
// traffic the jobs generate, which this power-centric model does not
// charge; the experiment therefore reports the *upper bound* the shared
// rail takes away.
func (s *Suite) ExtCrossChip() (*report.Artifact, error) {
	mgr, err := s.Manager()
	if err != nil {
		return nil, err
	}
	dep, err := s.Deployment()
	if err != nil {
		return nil, err
	}

	t := &report.Table{
		Title: "Cross-chip scheduling: background jobs moved to the other socket",
		Header: []string{"pair", "managed-max (same chip)", "cross-chip critical",
			"cross-chip bg perf", "managed-max bg perf"},
		Note: "separate rails end the frequency interference: the critical core sees an idle chip " +
			"while co-runners run unthrottled — an upper bound ignoring cross-socket memory traffic",
	}
	for _, pair := range manage.Fig14Pairs() {
		// Baseline: the paper's managed-max on P0.
		evMax, err := mgr.Evaluate(manage.ScenarioManagedMax, pair, 0)
		if err != nil {
			return nil, err
		}

		// Cross-chip: critical alone on the fastest P0 core, every P1
		// core running the background at full fine-tuned ATM.
		s.M.ResetAll()
		base := float64(silicon.FStatic)
		critCore := evMax.CriticalCore
		for _, core := range s.M.AllCores() {
			label := core.Profile.Label
			cfg, ok := dep.Config(label)
			if !ok {
				continue
			}
			core.SetMode(chip.ModeATM)
			if err := s.M.ProgramCPM(label, cfg.Reduction); err != nil {
				return nil, err
			}
			switch {
			case label == critCore:
				core.SetWorkload(pair.Critical)
			case label[:2] == "P1":
				core.SetWorkload(pair.Background)
			}
		}
		st, err := s.M.Solve()
		if err != nil {
			return nil, err
		}
		cs, err := st.CoreState(critCore)
		if err != nil {
			return nil, err
		}
		critPerf := pair.Critical.RelPerf(float64(cs.Freq), base)
		var bgSum float64
		var bgN int
		p1, err := st.ChipState("P1")
		if err != nil {
			return nil, err
		}
		for _, c := range p1.Cores {
			bgSum += pair.Background.RelPerf(float64(c.Freq), base)
			bgN++
		}
		s.M.ResetAll()

		t.AddRow(pair.Label(),
			report.Pct(evMax.Improvement()),
			report.Pct(critPerf-1),
			report.Pct(bgSum/float64(bgN)-1),
			report.Pct(evMax.BackgroundPerf-1))
	}
	return &report.Artifact{
		ID:      "ext-cross-chip",
		Caption: "The second socket's separate rail beats same-chip management on both axes at once",
		Tables:  []*report.Table{t},
	}, nil
}
