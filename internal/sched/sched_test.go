package sched

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// fixture shares the deployed machine across tests.
var (
	fixM   *chip.Machine
	fixDep *tuning.Deployment
)

func sim(t *testing.T) *Simulator {
	t.Helper()
	if fixM == nil {
		fixM = chip.NewReference()
		dep, err := tuning.Deploy(fixM, tuning.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fixDep = dep
	}
	s, err := NewSimulator(fixM, fixDep, "P0")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shortHorizon bounds the arrivals of the trace most tests run.
const shortHorizon = 60

// genTrace draws that trace from seed 7, failing the test on an error.
func genTrace(t *testing.T) []Job {
	t.Helper()
	trace, err := GenerateTrace(shortHorizon, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestTraceGeneration(t *testing.T) {
	trace := genTrace(t)
	if len(trace) < 10 {
		t.Fatalf("trace has only %d jobs", len(trace))
	}
	prev := -1.0
	crit, bg := 0, 0
	for i, j := range trace {
		if j.ArrivalSec < prev {
			t.Fatal("trace not sorted by arrival")
		}
		prev = j.ArrivalSec
		if j.ID != i {
			t.Fatal("IDs not renumbered")
		}
		if j.ServiceSec <= 0 {
			t.Fatal("non-positive service demand")
		}
		switch j.Class {
		case ClassCritical:
			crit++
			if j.Workload.Role != workload.RoleCritical {
				t.Errorf("critical job carries %s workload %s", j.Workload.Role, j.Workload.Name)
			}
		case ClassBackground:
			bg++
			if j.Workload.Role != workload.RoleBackground {
				t.Errorf("background job carries %s workload %s", j.Workload.Role, j.Workload.Name)
			}
		}
	}
	if crit == 0 || bg == 0 {
		t.Fatalf("trace missing a class: crit=%d bg=%d", crit, bg)
	}
	// Deterministic for a given seed.
	again := genTrace(t)
	if len(again) != len(trace) || again[3] != trace[3] {
		t.Error("trace generation not deterministic")
	}
}

// TestGenerateTraceRejectsBadOptions: the horizon is GenerateTrace's
// one setting. A negative or zero horizon is no stream, a NaN or
// infinite one would never end the arrival loop, and 172,414 s is the
// first whole-second horizon expecting more than maxExpectedJobs jobs
// at the fixed rates. Each is an error naming the horizon with no jobs,
// so the check ran before any draw; 172,413 s is accepted.
func TestGenerateTraceRejectsBadOptions(t *testing.T) {
	for _, h := range []float64{-1, 0, math.NaN(), math.Inf(1), math.Inf(-1), 172_414} {
		trace, err := GenerateTrace(h, rng.New(1))
		if err == nil || trace != nil {
			t.Errorf("horizon %v: got %d jobs, err %v; want no jobs and an error", h, len(trace), err)
			continue
		}
		if !strings.Contains(err.Error(), "horizon") {
			t.Errorf("horizon %v: error %q does not name the horizon", h, err)
		}
	}
	if trace, err := GenerateTrace(172_413, rng.New(1)); err != nil || len(trace) == 0 {
		t.Errorf("horizon 172413: got %d jobs, err %v; want a trace", len(trace), err)
	}
}

func TestAllJobsComplete(t *testing.T) {
	s := sim(t)
	trace := genTrace(t)
	res, err := s.Run(trace, Options{Policy: PolicyManaged})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(trace) {
		t.Fatalf("completed %d of %d jobs", len(res.Completed), len(trace))
	}
	for _, r := range res.Completed {
		if r.StartSec < r.ArrivalSec-1e-9 {
			t.Errorf("job %d started before arriving", r.ID)
		}
		if r.FinishSec <= r.StartSec {
			t.Errorf("job %d finished instantly", r.ID)
		}
		if r.Core == "" {
			t.Errorf("job %d has no core", r.ID)
		}
	}
	if res.MakespanSec <= shortHorizon/2 {
		t.Errorf("makespan %.1f implausibly small", res.MakespanSec)
	}
	if res.EnergyJ <= 0 {
		t.Error("no energy integrated")
	}
}

// TestStaticSpeedupIsOne: under the static policy every job runs at the
// 4.2 GHz baseline, so the achieved speedup is exactly 1.
func TestStaticSpeedupIsOne(t *testing.T) {
	s := sim(t)
	trace := genTrace(t)
	res, err := s.Run(trace, Options{Policy: PolicyStatic})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Completed {
		if math.Abs(r.Speedup()-1) > 1e-6 {
			t.Fatalf("job %d speedup %.4f under static margin", r.ID, r.Speedup())
		}
	}
}

// TestPolicyLadder is the dynamic counterpart of Fig. 14: managed ATM
// must deliver better critical-job latency than unmanaged ATM, which
// must beat the static margin.
func TestPolicyLadder(t *testing.T) {
	s := sim(t)
	lat := map[Policy]float64{}
	speed := map[Policy]float64{}
	for _, p := range []Policy{PolicyStatic, PolicyUnmanaged, PolicyManaged} {
		res, err := s.Run(genTrace(t), Options{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		lat[p] = res.CritLatency.Mean
		speed[p] = res.CritSpeedup
	}
	if !(speed[PolicyStatic] < speed[PolicyUnmanaged]) {
		t.Errorf("unmanaged ATM speedup %.3f not above static %.3f",
			speed[PolicyUnmanaged], speed[PolicyStatic])
	}
	if !(speed[PolicyUnmanaged] < speed[PolicyManaged]) {
		t.Errorf("managed speedup %.3f not above unmanaged %.3f",
			speed[PolicyManaged], speed[PolicyUnmanaged])
	}
	if !(lat[PolicyManaged] < lat[PolicyStatic]) {
		t.Errorf("managed critical latency %.2f not below static %.2f",
			lat[PolicyManaged], lat[PolicyStatic])
	}
}

// TestManagedPlacement: under the managed policy, critical jobs must
// land on faster cores (on average) than background jobs.
func TestManagedPlacement(t *testing.T) {
	s := sim(t)
	res, err := s.Run(genTrace(t), Options{Policy: PolicyManaged})
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for k, i := range s.bySpeed {
		rank[s.cores[i].Profile.Label] = k
	}
	var critRank, bgRank, critN, bgN float64
	for _, r := range res.Completed {
		if r.Class == ClassCritical {
			critRank += float64(rank[r.Core])
			critN++
		} else {
			bgRank += float64(rank[r.Core])
			bgN++
		}
	}
	if critN == 0 || bgN == 0 {
		t.Fatal("a class completed no jobs")
	}
	if critRank/critN >= bgRank/bgN {
		t.Errorf("critical jobs ran on slower cores (avg rank %.2f) than background (%.2f)",
			critRank/critN, bgRank/bgN)
	}
}

// TestMachineResetAfterRun: the simulator must return the machine to the
// reset state.
func TestMachineResetAfterRun(t *testing.T) {
	s := sim(t)
	if _, err := s.Run(genTrace(t), Options{Policy: PolicyManaged}); err != nil {
		t.Fatal(err)
	}
	for _, c := range s.m.AllCores() {
		if c.Workload().Name != "idle" || c.Reduction() != 0 || c.Mode() != chip.ModeATM {
			t.Fatalf("%s not reset after run", c.Profile.Label)
		}
	}
}

// TestDeterminism: same trace + options → identical results.
func TestDeterminism(t *testing.T) {
	s := sim(t)
	trace := genTrace(t)
	o := Options{Policy: PolicyManaged}
	r1, err := s.Run(trace, o)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(trace, o)
	if err != nil {
		t.Fatal(err)
	}
	if r1.CritLatency.Mean != r2.CritLatency.Mean || r1.EnergyJ != r2.EnergyJ {
		t.Error("simulation not deterministic")
	}
}

// TestOverload: with arrivals far above capacity, the queue drains after
// the horizon and everything still completes. The load is the fixed
// stream squeezed tenfold: a 300 s trace with every arrival time
// divided by 10 brings about 174 jobs in 30 s, 5 background jobs a
// second against a chip that serves about one.
func TestOverload(t *testing.T) {
	s := sim(t)
	trace, err := GenerateTrace(300, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace {
		trace[i].ArrivalSec /= 10
	}
	res, err := s.Run(trace, Options{Policy: PolicyManaged})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(trace) {
		t.Fatalf("overloaded run lost jobs: %d of %d", len(res.Completed), len(trace))
	}
	if res.MakespanSec <= 30 {
		t.Error("overloaded run did not drain past the horizon")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	if _, err := NewSimulator(fixM, fixDep, "P9"); err == nil {
		t.Error("bogus chip accepted")
	}
}

// TestSimulatorSchedulesOnItsChip: the chip NewSimulator is given is
// the only one jobs run on, under every policy, and "" selects P0.
func TestSimulatorSchedulesOnItsChip(t *testing.T) {
	sim(t) // builds the shared fixture
	build := func(chipLabel string) *Simulator {
		s, err := NewSimulator(fixM, fixDep, chipLabel)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	p1, p0, unnamed := build("P1"), build("P0"), build("")
	for _, p := range []Policy{PolicyStatic, PolicyUnmanaged, PolicyManaged, PolicyOndemand} {
		trace := genTrace(t)
		o := Options{Policy: p}
		res, err := p1.Run(trace, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Completed) != len(trace) {
			t.Fatalf("%s on P1: completed %d of %d jobs", p, len(res.Completed), len(trace))
		}
		for _, r := range res.Completed {
			if ch, err := fixM.ChipOf(r.Core); err != nil || ch.Profile.Label != "P1" {
				t.Fatalf("%s on P1: job %d ran on core %q", p, r.ID, r.Core)
			}
		}
		want, err := p0.Run(trace, o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unnamed.Run(trace, o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Completed, want.Completed) {
			t.Errorf("%s: a simulator built with \"\" ran other records than one built with \"P0\"", p)
		}
	}
}

// TestOndemandSavesEnergy: the ondemand baseline matches the static
// policy's performance (speedup 1, same latency behaviour) while
// spending less energy by walking idle cores down the p-state ladder.
// TestOndemandClocking pins the two answers the static-ondemand policy
// takes from the stock ondemand governor (Sec. VII-D): a dispatched core
// runs static at the top p-state, and a freed core drops to the floor
// the governor walks a sustained-idle core down to. A redispatch from
// the floor recovers the top in one step.
func TestOndemandClocking(t *testing.T) {
	s := sim(t)
	defer s.m.ResetAll()
	core := s.cores[0]
	job := Job{Class: ClassCritical, Workload: workload.X264}
	for round := 0; round < 2; round++ {
		if err := s.configureCore(0, job, PolicyOndemand); err != nil {
			t.Fatal(err)
		}
		if core.Mode() != chip.ModeStatic || core.PState() != chip.PStateMax {
			t.Fatalf("round %d: dispatched core %s at %v, want static at %v", round, core.Mode(), core.PState(), chip.PStateMax)
		}
		if err := s.idleCore(core, PolicyOndemand); err != nil {
			t.Fatal(err)
		}
		if core.PState() != chip.PStateMin || core.Workload().Name != workload.Idle.Name {
			t.Fatalf("round %d: freed core runs %s at %v, want idle at %v", round, core.Workload().Name, core.PState(), chip.PStateMin)
		}
	}
}

func TestOndemandSavesEnergy(t *testing.T) {
	s := sim(t)
	trace := genTrace(t)
	rs, err := s.Run(trace, Options{Policy: PolicyStatic})
	if err != nil {
		t.Fatal(err)
	}
	ro, err := s.Run(trace, Options{Policy: PolicyOndemand})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ro.Completed {
		if math.Abs(r.Speedup()-1) > 1e-6 {
			t.Fatalf("job %d speedup %.4f under the ondemand static baseline", r.ID, r.Speedup())
		}
	}
	if ro.EnergyJ >= rs.EnergyJ {
		t.Errorf("ondemand energy %.0f J not below static-at-max %.0f J", ro.EnergyJ, rs.EnergyJ)
	}
	if ro.Policy.String() != "static-ondemand" {
		t.Errorf("policy name %q", ro.Policy.String())
	}
}
