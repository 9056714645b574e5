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

// genTrace draws o's trace from its seed, failing the test on an
// options error.
func genTrace(t *testing.T, o Options) []Job {
	t.Helper()
	trace, err := GenerateTrace(o, rng.New(o.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func shortOpts(p Policy) Options {
	return Options{
		Policy:     p,
		HorizonSec: 60,
		Seed:       7,
	}
}

func TestTraceGeneration(t *testing.T) {
	o := shortOpts(PolicyStatic)
	trace := genTrace(t, o)
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
	again := genTrace(t, o)
	if len(again) != len(trace) || again[3] != trace[3] {
		t.Error("trace generation not deterministic")
	}
}

// TestGenerateTraceRejectsBadOptions: a negative value would panic in
// rng.Exp and a NaN or infinite one would never end the arrival loop,
// so returning an error at all shows the check ran before any draw.
// The error names the field; zero still selects the default. An
// expected trace above maxExpectedJobs is rejected too, with the
// defaults applied, naming the three fields of the product; Validate
// decides it from the arithmetic, so no oversized trace is drawn.
func TestGenerateTraceRejectsBadOptions(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Options, float64)
	}{
		{"HorizonSec", func(o *Options, v float64) { o.HorizonSec = v }},
		{"CritRate", func(o *Options, v float64) { o.CritRate = v }},
		{"BGRate", func(o *Options, v float64) { o.BGRate = v }},
		{"CritServiceSec", func(o *Options, v float64) { o.CritServiceSec = v }},
		{"BGServiceSec", func(o *Options, v float64) { o.BGServiceSec = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			o := shortOpts(PolicyStatic)
			f.set(&o, v)
			trace, err := GenerateTrace(o, rng.New(o.Seed))
			if err == nil || trace != nil {
				t.Errorf("%s = %v: got %d jobs, err %v; want no jobs and an error", f.name, v, len(trace), err)
				continue
			}
			if !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: error %q does not name the field", f.name, v, err)
			}
		}
		o := shortOpts(PolicyStatic)
		f.set(&o, 0)
		if len(genTrace(t, o)) == 0 {
			t.Errorf("%s = 0: empty trace, want the default", f.name)
		}
	}
	for _, tc := range []struct {
		name string
		o    Options
		ok   bool
	}{
		{"default run, 174 expected", Options{}, true},
		{"TestOverload's run, 129 expected", Options{HorizonSec: 30, BGRate: 4, CritRate: 0.3}, true},
		{"exactly at the bound", Options{HorizonSec: 1000, CritRate: 50, BGRate: 50}, true},
		{"just above the bound", Options{HorizonSec: 1000, CritRate: 50, BGRate: 50.001}, false},
		{"1000 jobs/s over the default horizon", Options{CritRate: 1000}, false},
		{"long horizon at the default rates", Options{HorizonSec: 1e6}, false},
		{"rates whose sum overflows", Options{CritRate: math.MaxFloat64, BGRate: math.MaxFloat64}, false},
	} {
		err := tc.o.Validate()
		if tc.ok {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want an error", tc.name)
			continue
		}
		for _, field := range []string{"HorizonSec", "CritRate", "BGRate"} {
			if !strings.Contains(err.Error(), field) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, field)
			}
		}
		if trace, gerr := GenerateTrace(tc.o, rng.New(1)); gerr == nil || trace != nil {
			t.Errorf("%s: GenerateTrace returned %d jobs, err %v; want no jobs and an error", tc.name, len(trace), gerr)
		}
	}
}

func TestAllJobsComplete(t *testing.T) {
	s := sim(t)
	o := shortOpts(PolicyManaged)
	trace := genTrace(t, o)
	res, err := s.Run(trace, o)
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
	if res.MakespanSec <= o.HorizonSec/2 {
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
	o := shortOpts(PolicyStatic)
	trace := genTrace(t, o)
	res, err := s.Run(trace, o)
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
		o := shortOpts(p)
		trace := genTrace(t, o)
		res, err := s.Run(trace, o)
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
	o := shortOpts(PolicyManaged)
	trace := genTrace(t, o)
	res, err := s.Run(trace, o)
	if err != nil {
		t.Fatal(err)
	}
	rank := map[string]int{}
	for i, label := range s.bySpeed {
		rank[label] = i
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
	o := shortOpts(PolicyManaged)
	trace := genTrace(t, o)
	if _, err := s.Run(trace, o); err != nil {
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
	o := shortOpts(PolicyManaged)
	trace := genTrace(t, o)
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
// the horizon and everything still completes.
func TestOverload(t *testing.T) {
	s := sim(t)
	o := Options{Policy: PolicyManaged, HorizonSec: 30, BGRate: 4, CritRate: 0.3, Seed: 3}
	trace := genTrace(t, o)
	res, err := s.Run(trace, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Completed) != len(trace) {
		t.Fatalf("overloaded run lost jobs: %d of %d", len(res.Completed), len(trace))
	}
	if res.MakespanSec <= o.HorizonSec {
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
		o := shortOpts(p)
		trace := genTrace(t, o)
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
func TestOndemandSavesEnergy(t *testing.T) {
	s := sim(t)
	oStatic := shortOpts(PolicyStatic)
	oOnd := shortOpts(PolicyOndemand)
	trace := genTrace(t, oStatic)
	rs, err := s.Run(trace, oStatic)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := s.Run(trace, oOnd)
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
