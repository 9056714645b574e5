package sched

import (
	"slices"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Overload edges: the scheduler must stay live when the queue is full
// beyond any draining hope, and placement must still function when the
// tuning pass has quarantined every core to the static fallback.

// burstTrace hand-builds the worst queue shape: n jobs, all arriving at
// t=0, several times the chip's core count, mixed classes. Service
// demands are all distinct, so completions never tie (ties resolve in
// chip order; TestCompletionTiesResolveInChipOrder pins that).
func burstTrace(n int) []Job {
	crit := workload.Critical()[0]
	bg := workload.Background()[0]
	jobs := make([]Job, n)
	for i := range jobs {
		jitter := float64(i) * 1e-3
		j := Job{ID: i, Class: ClassBackground, Workload: bg, ServiceSec: 3 + jitter, ArrivalSec: 0}
		if i%4 == 0 {
			j.Class = ClassCritical
			j.Workload = crit
			j.ServiceSec = 1 + jitter
		}
		jobs[i] = j
	}
	return jobs
}

// TestSimultaneousBurstDrains: 64 jobs land at t=0 on an 8-core chip —
// the ready queue is full for the whole run. Every policy must drain the
// backlog without deadlock, run every core, and never start a job twice.
func TestSimultaneousBurstDrains(t *testing.T) {
	s := sim(t)
	trace := burstTrace(64)
	for _, p := range []Policy{PolicyStatic, PolicyOndemand, PolicyUnmanaged, PolicyManaged} {
		o := Options{Policy: p, HorizonSec: 1, Seed: 11}
		res, err := s.Run(trace, o)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(res.Completed) != len(trace) {
			t.Fatalf("%s: burst lost jobs: completed %d of %d", p, len(res.Completed), len(trace))
		}
		seen := map[int]bool{}
		cores := map[string]bool{}
		for _, r := range res.Completed {
			if seen[r.ID] {
				t.Fatalf("%s: job %d completed twice", p, r.ID)
			}
			seen[r.ID] = true
			cores[r.Core] = true
			if r.StartSec < 0 || r.FinishSec <= r.StartSec {
				t.Errorf("%s: job %d has degenerate timing [%.3f, %.3f]", p, r.ID, r.StartSec, r.FinishSec)
			}
		}
		if len(cores) != len(s.bySpeed) {
			t.Errorf("%s: burst used %d cores of %d — a full queue must saturate the chip",
				p, len(cores), len(s.bySpeed))
		}
		if res.MakespanSec <= o.HorizonSec {
			t.Errorf("%s: makespan %.2f did not extend past the horizon under 64 queued jobs",
				p, res.MakespanSec)
		}
	}
}

// TestBurstDeterministic: the saturated queue must not introduce any
// order sensitivity — two runs of the same burst are identical.
func TestBurstDeterministic(t *testing.T) {
	s := sim(t)
	trace := burstTrace(64)
	o := Options{Policy: PolicyManaged, HorizonSec: 1, Seed: 11}
	r1, err := s.Run(trace, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(trace, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Completed) != len(r2.Completed) || r1.EnergyJ != r2.EnergyJ {
		t.Fatal("burst run not deterministic")
	}
	for i := range r1.Completed {
		if r1.Completed[i] != r2.Completed[i] {
			t.Fatalf("burst job %d differs across identical runs", r1.Completed[i].ID)
		}
	}
}

// TestCompletionTiesResolveInChipOrder: three background jobs with
// equal service demands arrive together under the static policy, so
// every core runs at 4.2 GHz and all three finish at the same instant.
// The tie resolves in the chip's physical core order, the same in
// every run, and the completion records follow it.
func TestCompletionTiesResolveInChipOrder(t *testing.T) {
	s := sim(t)
	bg := workload.Background()[0]
	trace := make([]Job, 3)
	for i := range trace {
		trace[i] = Job{ID: i, Class: ClassBackground, Workload: bg, ServiceSec: 2}
	}
	var want []string
	for _, c := range fixM.Chips[0].Cores[:len(trace)] {
		want = append(want, c.Profile.Label)
	}
	for run := 0; run < 20; run++ {
		res, err := s.Run(trace, Options{Policy: PolicyStatic, HorizonSec: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for k, r := range res.Completed {
			got = append(got, r.Core)
			if r.ID != k || r.FinishSec != res.Completed[0].FinishSec {
				t.Fatalf("run %d: completion %d is job %d at %v s, want job %d at the shared finish %v s",
					run, k, r.ID, r.FinishSec, k, res.Completed[0].FinishSec)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d: tied jobs completed on %v, want chip order %v", run, got, want)
		}
	}
}

// TestAllCoresQuarantinedPlacement: a machine whose every trial harness
// is broken gets every core quarantined to the static fallback — and the
// scheduler must still place and complete work on it (the paper's
// degraded mode: a fully quarantined chip is a static-margin chip, not a
// dead one).
func TestAllCoresQuarantinedPlacement(t *testing.T) {
	m := chip.NewReference()
	prof, err := fault.ParseProfile("broken=16")
	if err != nil {
		t.Fatal(err)
	}
	fault.New(prof, 1).ArmMachine(m)
	dep, err := tuning.Deploy(m, tuning.Options{})
	if err != nil {
		t.Fatalf("Deploy on a fully broken machine: %v", err)
	}
	if got, want := len(dep.Quarantined()), len(m.AllCores()); got != want {
		t.Fatalf("quarantined %d cores, want all %d", got, want)
	}
	s, err := NewSimulator(m, dep, "P0")
	if err != nil {
		t.Fatalf("NewSimulator over a quarantined deployment: %v", err)
	}
	trace := burstTrace(24)
	res, err := s.Run(trace, Options{Policy: PolicyManaged, HorizonSec: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(trace) {
		t.Fatalf("quarantined chip lost jobs: %d of %d", len(res.Completed), len(trace))
	}
	// Quarantined cores run at the deployed static fallback: no job may
	// claim a speedup above the fine-tuned range, and none may stall.
	for _, r := range res.Completed {
		if r.Core == "" {
			t.Errorf("job %d completed without a core", r.ID)
		}
		if sp := r.Speedup(); sp <= 0 {
			t.Errorf("job %d has non-positive speedup %.3f", r.ID, sp)
		}
	}
}
