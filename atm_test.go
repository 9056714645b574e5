package atm

import (
	"io"
	"strings"
	"testing"

	"repro/internal/manage"
	"repro/internal/report"
	"repro/internal/workload"
)

// TestPublicPipeline drives the whole library through the public facade
// the way a downstream user would: machine → characterize → deploy →
// manage → evaluate.
func TestPublicPipeline(t *testing.T) {
	m := NewReferenceMachine()

	rep, err := Characterize(m, CharactOptions{})
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	if len(rep.Cores) != 16 {
		t.Fatalf("characterized %d cores", len(rep.Cores))
	}

	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if dep.SpeedDifferentialMHz() < 200 {
		t.Errorf("speed differential %.0f MHz below the paper's 200", dep.SpeedDifferentialMHz())
	}

	mgr, err := NewManager(m, dep, rep)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	crit, err := WorkloadByName("squeezenet")
	if err != nil {
		t.Fatal(err)
	}
	bg, err := WorkloadByName("lu_cb")
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mgr.Evaluate(ScenarioManagedBalanced, Pair{Critical: crit, Background: bg}, 0.10)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if !ev.MeetsQoS {
		t.Errorf("balanced schedule missed QoS: %+v", ev)
	}
}

// TestSuiteRegeneratesEverything runs every experiment end to end and
// checks the artifacts render.
func TestSuiteRegeneratesEverything(t *testing.T) {
	s, err := NewSuite(SuiteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, e := range s.Experiments() {
		a, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if a.ID != e.ID {
			t.Errorf("experiment %s produced artifact %s", e.ID, a.ID)
		}
		if len(a.Tables) == 0 {
			t.Errorf("%s: no tables", e.ID)
		}
		var sb strings.Builder
		if err := a.Render(&sb); err != nil {
			t.Fatalf("%s render: %v", e.ID, err)
		}
		if len(sb.String()) < 100 {
			t.Errorf("%s rendered suspiciously short output", e.ID)
		}
		if err := a.RenderCSV(io.Discard); err != nil {
			t.Fatalf("%s CSV render: %v", e.ID, err)
		}
		ids[e.ID] = true
	}
	// The paper's evaluation set must be covered.
	for _, want := range []string{"fig1", "fig2", "fig4b", "fig5", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12a", "fig12b", "fig14", "table1", "table2"} {
		if !ids[want] {
			t.Errorf("experiment %s missing from the suite", want)
		}
	}
	if _, err := s.RunExperiment("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestGeneratedSiliconPipeline runs the pipeline on Monte-Carlo silicon:
// the methodology must work on any chip, not just the calibrated one.
func TestGeneratedSiliconPipeline(t *testing.T) {
	profile, err := GenerateSilicon(77, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(profile)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Characterize(m, CharactOptions{Trials: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("generated-silicon report invalid: %v", err)
	}
	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Stress limits on any silicon must not exceed the thread-worst
	// characterization limits (the virus covers the worst app).
	for _, cfg := range dep.Configs {
		cr, ok := rep.Core(cfg.Core)
		if !ok {
			t.Fatalf("missing report for %s", cfg.Core)
		}
		if cfg.StressLimit > cr.ThreadWorst {
			t.Errorf("%s stress limit %d above thread-worst %d",
				cfg.Core, cfg.StressLimit, cr.ThreadWorst)
		}
	}
}

// TestWorkloadAccessors sanity-checks the workload library, the
// facade's lookups into it, and the evaluation pairs.
func TestWorkloadAccessors(t *testing.T) {
	if len(workload.All()) < 25 {
		t.Errorf("library has %d workloads", len(workload.All()))
	}
	if len(workload.Critical()) == 0 || len(workload.Background()) == 0 {
		t.Error("Table II roles empty")
	}
	if _, err := WorkloadByName("x264"); err != nil {
		t.Error(err)
	}
	if _, err := WorkloadByName("doom"); err == nil {
		t.Error("unknown workload accepted")
	}
	vv := VoltageVirus()
	if vv.Profile.Name != "voltage-virus" {
		t.Errorf("virus = %q", vv.Profile.Name)
	}
	if len(manage.Fig14Pairs()) < 5 {
		t.Error("too few evaluation pairs")
	}
}

// TestReferenceTableIRow checks the published-data accessor.
func TestReferenceTableIRow(t *testing.T) {
	idle, ub, normal, worst, ok := ReferenceTableIRow("P0C3")
	if !ok || idle != 11 || ub != 10 || normal != 9 || worst != 6 {
		t.Errorf("P0C3 row = %d/%d/%d/%d ok=%v", idle, ub, normal, worst, ok)
	}
	if _, _, _, _, ok := ReferenceTableIRow("bogus"); ok {
		t.Error("bogus label accepted")
	}
}

// TestReportHelpers covers the rendering helpers the examples use.
func TestReportHelpers(t *testing.T) {
	tab := &report.Table{Title: "T", Header: []string{"a", "b"}}
	tab.AddRow("1", "2")
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"T", "a", "b", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if report.Pct(0.154) != "15.4%" {
		t.Errorf("Pct = %q", report.Pct(0.154))
	}
	if report.F(3.14159, 2) != "3.14" {
		t.Errorf("F = %q", report.F(3.14159, 2))
	}
}

// TestFacadeJobSimulator drives the dynamic scheduler through the
// public surface.
func TestFacadeJobSimulator(t *testing.T) {
	m := NewReferenceMachine()
	dep, err := Deploy(m, DeployOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewJobSimulator(m, dep, "P0")
	if err != nil {
		t.Fatal(err)
	}
	trace, err := GenerateJobTrace(30, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	res, err := sim.Run(trace, SchedOptions{Policy: SchedManaged})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(trace) {
		t.Errorf("completed %d of %d", len(res.Completed), len(trace))
	}
	if res.CritSpeedup <= 1 {
		t.Errorf("managed critical speedup %.3f not above static", res.CritSpeedup)
	}
}

// TestFacadeUndervolt drives the power-saving mode through the public
// surface.
func TestFacadeUndervolt(t *testing.T) {
	m := NewReferenceMachine()
	var res UndervoltResult
	res, err := m.SolveUndervolt("P0", 4200)
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingsFrac() <= 0 || res.SlowestFreq < 4200 {
		t.Errorf("undervolt result implausible: %+v", res)
	}
}

// TestFacadeSchedPolicyNames pins the policy constants' names.
func TestFacadeSchedPolicyNames(t *testing.T) {
	want := map[SchedPolicy]string{
		SchedStatic:    "static",
		SchedOndemand:  "static-ondemand",
		SchedUnmanaged: "unmanaged-atm",
		SchedManaged:   "managed-atm",
	}
	for p, name := range want {
		if p.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), name)
		}
	}
}
