package core

import (
	"fmt"

	"repro/internal/chip"
	"repro/internal/pdn"
	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/units"
	"repro/internal/workload"
)

// ExtDroopSync characterizes the voltage-virus mechanism (Sec. VII-A):
// the first-droop depth as a function of how many cores synchronize
// their issue-throttle power surges, through the PDN's second-order
// response. It is the circuit-level "why" behind the virus recipe — the
// synchronized step is what produces worst-case noise, and the part of
// the droop faster than the loop's response is what the fine-tuned
// margin must still absorb.
func (s *Suite) ExtDroopSync() (*report.Artifact, error) {
	virus := workload.VoltageVirus()

	// Per-core dynamic current swing of the virus at the stress corner.
	st, err := func() (units.Volt, error) {
		m := s.M
		m.ResetAll()
		defer m.ResetAll()
		for _, core := range m.Chips[0].Cores {
			core.SetWorkload(workload.Daxpy)
		}
		sol, err := m.Solve()
		if err != nil {
			return 0, err
		}
		return sol.Chips[0].Supply, nil
	}()
	if err != nil {
		return nil, err
	}
	perCoreAmps := chip.DynCurrentAmps(workload.Daxpy, 4500, st)

	t := &report.Table{
		Title: "First-droop depth vs synchronized cores (voltage-virus current steps)",
		Header: []string{"synchronized cores", "current step (A)", "first droop (mV)",
			"uncovered @1ns droop (mV)", "margin cost (ps at 4.6 GHz)"},
		Note: "superposition with losses: aligning all 8 cores roughly triples the per-core droop; " +
			"the uncovered fraction is what erodes the fine-tuned margin",
	}
	for _, n := range []int{1, 2, 4, 8} {
		// droop(n synchronized cores) = single-core droop × SyncFactor(n).
		droop := units.Volt(float64(pdn.FirstDroopPeak(perCoreAmps*0.9)) * pdn.SyncFactor(n))
		uncovered := units.Volt(float64(droop) * pdn.UncoveredFraction(1.0))
		// Margin cost: delay increase of the true path under the
		// uncovered sag, at the 4.6 GHz operating point.
		cost := 217.4 * (silicon.Scale(silicon.VRef-uncovered) - 1)
		t.AddRow(fmt.Sprintf("%d", n),
			report.F(perCoreAmps*0.9*float64(n), 1),
			report.F(droop.Millivolts(), 1),
			report.F(uncovered.Millivolts(), 1),
			report.F(cost, 1))
	}

	// The virus recipe summary.
	t2 := &report.Table{
		Title:  "Voltage-virus recipe (Sec. VII-A)",
		Header: []string{"component", "value"},
	}
	t2.AddRow("issue throttle", fmt.Sprintf("1 of every %d cycles, synchronized", virus.ThrottlePeriod))
	t2.AddRow("SMT pressure", fmt.Sprintf("%d threads/core (32 threads on 8 cores)", virus.ThreadsPerCore))
	t2.AddRow("sustained power component", "daxpy-class, ~160 W chip, ~70 °C")
	t2.AddRow("current step (8 cores aligned)", report.F(virus.CurrentStepAmps(8, perCoreAmps*float64(st), float64(st)), 1)+" A")
	return &report.Artifact{
		ID:      "ext-droop-sync",
		Caption: "Synchronized current steps are the worst-case noise generator the deployment procedure must cover",
		Tables:  []*report.Table{t, t2},
	}, nil
}
