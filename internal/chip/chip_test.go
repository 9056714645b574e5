package chip

import (
	"fmt"
	"math"
	"runtime/debug"
	"testing"

	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/workload"
)

func TestNewReferenceBuilds(t *testing.T) {
	m := NewReference()
	if len(m.Chips) != 2 {
		t.Fatalf("machine has %d chips", len(m.Chips))
	}
	if len(m.AllCores()) != 16 {
		t.Fatalf("machine has %d cores", len(m.AllCores()))
	}
}

func TestCoreLookup(t *testing.T) {
	m := NewReference()
	c, err := m.Core("P1C5")
	if err != nil || c.Profile.Label != "P1C5" {
		t.Fatalf("Core lookup failed: %v", err)
	}
	if _, err := m.Core("P5C0"); err == nil {
		t.Error("bogus core label accepted")
	}
	ch, err := m.ChipOf("P1C5")
	if err != nil || ch.Profile.Label != "P1" {
		t.Fatalf("ChipOf failed: %v", err)
	}
	if _, err := m.ChipOf("nope"); err == nil {
		t.Error("bogus ChipOf label accepted")
	}
}

// TestCoreLookupMatchesScan holds the label-addressed lookup to a scan
// of every core, on the reference machine and on one whose labels do
// not all match their slots: two swapped, one free-form, one naming a
// chip that does not exist. Malformed and unknown labels must miss.
func TestCoreLookupMatchesScan(t *testing.T) {
	prof := silicon.Reference().Clone()
	c0 := prof.Chips[0].Cores
	c0[1].Label, c0[2].Label = c0[2].Label, c0[1].Label
	prof.Chips[1].Cores[3].Label = "core-b3"
	prof.Chips[1].Cores[4].Label = "P7C0"
	shuffled, err := New(prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"", "P", "PC", "P0C", "P0C3x", "P00C3", "P0C03", "p0c3", "P-1C3",
		"P99999C0", "P0C1 ", "P1C99", "P2C0", "core-b3", "P7C0", "P1C3", "P1C4"}
	for ci := range 2 {
		for k := range 8 {
			labels = append(labels, fmt.Sprintf("P%dC%d", ci, k))
		}
	}
	for _, m := range []*Machine{NewReference(), shuffled} {
		for _, label := range labels {
			var wantChip *Chip
			var wantCore *Core
			for _, c := range m.Chips {
				for _, core := range c.Cores {
					if wantCore == nil && core.Profile.Label == label {
						wantChip, wantCore = c, core
					}
				}
			}
			core, err := m.Core(label)
			if core != wantCore || (err == nil) != (wantCore != nil) {
				t.Errorf("Core(%q) = %v, %v; scan finds %v", label, core, err, wantCore)
			}
			chip, err := m.ChipOf(label)
			if chip != wantChip || (err == nil) != (wantChip != nil) {
				t.Errorf("ChipOf(%q) = %v, %v; scan finds %v", label, chip, err, wantChip)
			}
		}
	}
}

func TestIdleOperatingPoint(t *testing.T) {
	m := NewReference()
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range st.Chips {
		// Idle chip: ~50–65 W, supply pinned near VRef by VRM
		// calibration, all cores near the 4.6 GHz default.
		if cs.Power < 45 || cs.Power > 70 {
			t.Errorf("%s idle power %v outside 45–70 W", cs.Label, cs.Power)
		}
		if math.Abs(float64(cs.Supply-1.25)) > 0.004 {
			t.Errorf("%s idle supply %v, want ≈1.25 V", cs.Label, cs.Supply)
		}
		if !cs.InBudget {
			t.Errorf("%s idle outside thermal envelope", cs.Label)
		}
		for _, core := range cs.Cores {
			if core.Freq < 4500 || core.Freq > 4700 {
				t.Errorf("%s idle frequency %v outside the default-ATM band", core.Label, core.Freq)
			}
		}
	}
}

func TestStressOperatingPoint(t *testing.T) {
	m := NewReference()
	for _, core := range m.AllCores() {
		core.SetWorkload(workload.Daxpy)
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Chips[0]
	// The paper's stress corner: ≈160 W, ≈70 °C.
	if cs.Power < 140 || cs.Power > 185 {
		t.Errorf("stress power %v outside 140–185 W", cs.Power)
	}
	if cs.TempC < 60 || cs.TempC > 75 {
		t.Errorf("stress temperature %v outside 60–75 °C", cs.TempC)
	}
	// The DC drop must reduce every core's ATM frequency vs idle.
	m2 := NewReference()
	idle, err := m2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, core := range cs.Cores {
		if core.Freq >= idle.Chips[0].Cores[i].Freq {
			t.Errorf("%s frequency did not drop under load", core.Label)
		}
	}
}

func TestReductionRaisesFrequency(t *testing.T) {
	m := NewReference()
	base, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ProgramCPM("P0C3", 6); err != nil {
		t.Fatal(err)
	}
	tuned, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	fBase, _ := base.CoreState("P0C3")
	fTuned, _ := tuned.CoreState("P0C3")
	if fTuned.Freq <= fBase.Freq+100 {
		t.Errorf("6-step reduction moved %v → %v; expected a large gain", fBase.Freq, fTuned.Freq)
	}
	if fTuned.Reduction != 6 {
		t.Errorf("state reports reduction %d", fTuned.Reduction)
	}
}

func TestStaticModePinsPState(t *testing.T) {
	m := NewReference()
	core, _ := m.Core("P0C0")
	core.SetMode(ModeStatic)
	if err := core.SetPState(3700); err != nil {
		t.Fatal(err)
	}
	for _, c := range m.AllCores() {
		c.SetWorkload(workload.Daxpy) // heavy load must not move a static core
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := st.CoreState("P0C0")
	if cs.Freq != 3700 {
		t.Errorf("static core at %v, want 3700", cs.Freq)
	}
	if cs.Mode != ModeStatic {
		t.Errorf("state mode = %v", cs.Mode)
	}
}

func TestSetPStateValidation(t *testing.T) {
	m := NewReference()
	core, _ := m.Core("P0C0")
	if err := core.SetPState(3456); err == nil {
		t.Error("off-ladder p-state accepted")
	}
	for _, ps := range PStates {
		if err := core.SetPState(ps); err != nil {
			t.Errorf("ladder p-state %v rejected: %v", ps, err)
		}
	}
}

func TestGatingRemovesCore(t *testing.T) {
	m := NewReference()
	core, _ := m.Core("P0C7")
	core.SetGated(true)
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := st.CoreState("P0C7")
	if cs.Freq != 0 || !cs.Gated {
		t.Errorf("gated core state: freq=%v gated=%v", cs.Freq, cs.Gated)
	}
	// Gating must lower chip power vs all-ungated idle.
	m2 := NewReference()
	base, _ := m2.Solve()
	if st.Chips[0].Power >= base.Chips[0].Power {
		t.Error("gating did not reduce chip power")
	}
}

func TestATMNeverBelowPState(t *testing.T) {
	m := NewReference()
	// Even under maximum load, an ATM core's settled frequency stays at
	// or above its p-state floor.
	for _, core := range m.AllCores() {
		core.SetWorkload(workload.Daxpy)
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range st.Chips {
		for _, cs := range ch.Cores {
			if cs.Freq < PStateMax {
				t.Errorf("%s ATM frequency %v under the p-state floor", cs.Label, cs.Freq)
			}
		}
	}
}

func TestSolveStateConsistency(t *testing.T) {
	m := NewReference()
	for i, core := range m.AllCores() {
		if i%2 == 0 {
			core.SetWorkload(workload.X264)
		}
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for ci, cs := range st.Chips {
		// Reported chip power must equal uncore + Σ core powers.
		sum := UncoreW
		for _, c := range cs.Cores {
			sum += c.Power
		}
		if math.Abs(float64(sum-cs.Power)) > 0.5 {
			t.Errorf("chip %d power inconsistent: %v vs Σ %v", ci, cs.Power, sum)
		}
		// And the supply must satisfy the loadline at that power.
		want := m.Chips[ci].PDN.SteadyVoltage(cs.Power)
		if math.Abs(float64(want-cs.Supply)) > 1e-3 {
			t.Errorf("chip %d supply inconsistent: %v vs loadline %v", ci, cs.Supply, want)
		}
	}
}

func TestResetAll(t *testing.T) {
	m := NewReference()
	core, _ := m.Core("P0C2")
	core.SetWorkload(workload.MCF)
	core.SetMode(ModeStatic)
	core.SetGated(true)
	if err := m.ProgramCPM("P0C3", 4); err != nil {
		t.Fatal(err)
	}
	m.ResetAll()
	for _, c := range m.AllCores() {
		if c.Reduction() != 0 || c.Mode() != ModeATM || c.Gated() ||
			c.Workload().Name != "idle" || c.PState() != PStateMax {
			t.Errorf("%s not reset: %+v", c.Profile.Label, c)
		}
	}
}

// runTrials runs n independent trials of w on the labelled core and
// returns the number that passed, the number that failed, and the first
// failure's kind.
func runTrials(t *testing.T, m *Machine, label string, w workload.Profile, n int, src *rng.Source) (pass, fail int, first FailureKind) {
	t.Helper()
	for i := 0; i < n; i++ {
		f, err := m.RunTrial(label, w, src.SplitIndex("trial", i))
		if err != nil {
			t.Fatal(err)
		}
		if f == FailureNone {
			pass++
			continue
		}
		if fail == 0 {
			first = f
		}
		fail++
	}
	return pass, fail, first
}

func TestTrialAtDefaultNeverFails(t *testing.T) {
	m := NewReference()
	src := rng.New(2)
	for _, core := range m.AllCores() {
		pass, fail, first := runTrials(t, m, core.Profile.Label, workload.X264, 50, src.Split(core.Profile.Label))
		if fail != 0 {
			t.Errorf("%s failed %d/50 trials at the default config (%v)", core.Profile.Label, fail, first)
		}
		if pass != 50 {
			t.Errorf("%s pass count %d", core.Profile.Label, pass)
		}
	}
}

func TestTrialBeyondLimitFails(t *testing.T) {
	m := NewReference()
	src := rng.New(3)
	for _, core := range m.AllCores() {
		label := core.Profile.Label
		_, _, _, _ = label, core, src, m
		_, _, worstLim, _, ok := silicon.ReferenceTableI(label)
		if !ok {
			t.Fatal("missing table row")
		}
		if worstLim+2 > core.Profile.MaxReduction() {
			continue
		}
		if err := m.ProgramCPM(label, worstLim+2); err != nil {
			t.Fatal(err)
		}
		_, fail, _ := runTrials(t, m, label, workload.X264, 20, src.Split(label))
		if fail == 0 {
			t.Errorf("%s survived 20 trials two steps past thread-worst", label)
		}
		if err := m.ProgramCPM(label, 0); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTrialUnderStaticMarginAlwaysPasses(t *testing.T) {
	m := NewReference()
	core, _ := m.Core("P0C0")
	core.SetMode(ModeStatic)
	// Program an absurdly aggressive CPM config: irrelevant under
	// static margin.
	if err := m.ProgramCPM("P0C0", core.Profile.MaxReduction()); err != nil {
		t.Fatal(err)
	}
	_, fail, _ := runTrials(t, m, "P0C0", workload.X264, 50, rng.New(4))
	if fail != 0 {
		t.Errorf("static margin failed %d trials", fail)
	}
}

func TestSDCDetectionNeedsChecker(t *testing.T) {
	m := NewReference()
	core, _ := m.Core("P0C7")
	if err := m.ProgramCPM("P0C7", core.Profile.MaxReduction()); err != nil {
		t.Fatal(err)
	}
	noChecker := workload.X264
	noChecker.HasChecker = false
	src := rng.New(5)
	sawUndetectedSDC := false
	sawDetected := false
	for i := 0; i < 300; i++ {
		f, err := m.RunTrial("P0C7", noChecker, src.SplitIndex("t", i))
		if err != nil {
			t.Fatal(err)
		}
		r := trialRecord(core, &noChecker, f)
		switch {
		case r.Failure == FailureSDC && !r.Detected:
			sawUndetectedSDC = true
		case r.Failure != FailureNone && r.Detected:
			sawDetected = true
		case r.Failure == FailureSDC && r.Detected:
			t.Error("SDC detected without a checker")
		}
	}
	if !sawUndetectedSDC || !sawDetected {
		t.Errorf("failure mix missing kinds: undetectedSDC=%v detected=%v", sawUndetectedSDC, sawDetected)
	}
}

// TestCoreTrialLoopAllocFree pins the characterization's inner loop —
// the loop charact's configSafe runs — at zero allocations: per run a
// fresh child stream, one application trial on a vulnerable core
// through the handle-taking entry with a retry budget of 2. The core
// sits one step past the application's limit so the failure draw runs.
func TestCoreTrialLoopAllocFree(t *testing.T) {
	m := NewReference()
	var core *Core
	for _, c := range m.AllCores() {
		if c.Profile.Vulnerability > 0 {
			core = c
			break
		}
	}
	if core == nil {
		t.Fatal("reference has no vulnerable core")
	}
	w := workload.Realistic()[0]
	for _, p := range workload.Realistic() {
		if p.StressScore > w.StressScore {
			w = p
		}
	}
	if err := core.Monitor.Program(core.Profile.DeterministicLimit(w.StressScore) + 1); err != nil {
		t.Fatal(err)
	}
	src := rng.New(1)
	runs, fails := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			f, err := m.RunCoreTrialRetry(core, &w, src.SplitIndex("run", runs), 2)
			if err != nil {
				t.Fatal(err)
			}
			runs++
			if f != FailureNone {
				fails++
			}
		}
	})
	if allocs != 0 {
		t.Errorf("trial loop allocates %v times per 4 runs, want 0", allocs)
	}
	if fails == 0 {
		t.Errorf("no run of %d failed one step past the limit; the failure draw went unmeasured", runs)
	}
}

// TestCoreTrialRetryMatchesLabelEntry: the label entry (RunTrial) and
// the handle entry are one trial implementation — same results from the
// same streams — and the observer sees each retry-wrapped trial, with
// the record of the label entry's outcome.
func TestCoreTrialRetryMatchesLabelEntry(t *testing.T) {
	m := NewReference()
	core, err := m.Core("P1C3")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ProgramCPM("P1C3", 5); err != nil {
		t.Fatal(err)
	}
	virus := workload.VoltageVirus()
	seen := 0
	var rec TrialResult
	m.SetTrialObserver(func(label, wl string, retries int, res TrialResult, err error) {
		if label != "P1C3" || wl != virus.Profile.Name || retries != 0 || err != nil {
			t.Errorf("observer saw %s/%s retries=%d err=%v", label, wl, retries, err)
		}
		rec = res
		seen++
	})
	src := rng.New(6)
	failed := 0
	for i := 0; i < 200; i++ {
		a, errA := m.RunTrial("P1C3", virus.Profile, src.SplitIndex("t", i))
		b, errB := m.RunCoreTrialRetry(core, &virus.Profile, src.SplitIndex("t", i), 2)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if a != b {
			t.Fatalf("trial %d: label entry %v, handle entry %v", i, a, b)
		}
		want := TrialResult{Core: "P1C3", Workload: virus.Profile.Name, Reduction: 5,
			Failure: a, Detected: true}
		if rec != want {
			t.Fatalf("trial %d: observer saw %+v, want %+v", i, rec, want)
		}
		if a != FailureNone {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no trial failed at reduction 5; the records compared carry no failure")
	}
	if seen != 200 {
		t.Errorf("observer saw %d trials, want 200", seen)
	}
	if _, err := m.RunTrial("P9C9", virus.Profile, src); err == nil {
		t.Error("unknown core accepted")
	}
}

func TestFailureKindStrings(t *testing.T) {
	if FailureNone.String() != "ok" || FailureSDC.String() != "sdc" ||
		FailureSegfault.String() != "abnormal-exit" || FailureSystemCrash.String() != "system-crash" {
		t.Error("failure kind strings wrong")
	}
	if ModeStatic.String() != "static" || ModeATM.String() != "atm" {
		t.Error("mode strings wrong")
	}
}

func TestRunStressmarkValidates(t *testing.T) {
	m := NewReference()
	bad := workload.VoltageVirus()
	bad.ThreadsPerCore = 9
	if _, err := m.RunStressmark("P0C0", bad, rng.New(1)); err == nil {
		t.Error("invalid stressmark accepted")
	}
}

func TestTransientMatchesSolve(t *testing.T) {
	m := NewReference()
	res, err := m.Transient("P0", 3000, 1.0, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for i, cs := range st.Chips[0].Cores {
		// The loop-level mean frequency must sit near the analytic
		// steady state (within ~1.5% — droops and slew transients eat
		// a little).
		diff := math.Abs(float64(res.MeanFreq[i]-cs.Freq)) / float64(cs.Freq)
		if diff > 0.015 {
			t.Errorf("%s transient mean %v vs solve %v (%.2f%%)",
				cs.Label, res.MeanFreq[i], cs.Freq, diff*100)
		}
	}
	if len(res.Samples) != 3000 {
		t.Errorf("sample count %d", len(res.Samples))
	}
}

func TestTransientViolationsUnderStress(t *testing.T) {
	m := NewReference()
	// Aggressive config + stressful workload: the transient must show
	// the emergency path engaging at least occasionally.
	for _, core := range m.Chips[0].Cores {
		core.SetWorkload(workload.X264)
	}
	if err := m.ProgramCPM("P0C3", 8); err != nil {
		t.Fatal(err)
	}
	res, err := m.Transient("P0", 4000, 1.0, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	idleRes, err2 := func() (TransientResult, error) {
		m2 := NewReference()
		return m2.Transient("P0", 4000, 1.0, rng.New(7))
	}()
	if err2 != nil {
		t.Fatal(err2)
	}
	if res.Violations <= idleRes.Violations {
		t.Logf("stress violations %d, idle %d (acceptable but unusual)", res.Violations, idleRes.Violations)
	}
}

// TestVirusSilentDangerMechanism pins the model's subtle point: an
// aggressive configuration's *shorter* CPM path is less sensitive to
// voltage in absolute picoseconds, so with every P0 core running the
// voltage virus the loop observes no more margin violations than at the
// default, while the true-path failure hazard (what the trial model
// charges; silicon's TestFailureProbAtLimitsIsExtreme) grows sharply.
// The danger of fine-tuning is precisely that the canary gets quieter
// as the coal mine gets worse; only correctness checking sees it
// (Sec. III-B).
func TestVirusSilentDangerMechanism(t *testing.T) {
	violationsAt := func(red int, seed uint64) int {
		m := NewReference()
		for _, core := range m.Chips[0].Cores {
			core.SetWorkload(workload.VoltageVirus().Profile)
			if err := m.ProgramCPM(core.Profile.Label, min(red, core.Profile.MaxReduction())); err != nil {
				t.Fatal(err)
			}
		}
		res, err := m.Transient("P0", 400, 1.0, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.Violations
	}
	for seed := uint64(1); seed <= 3; seed++ {
		if vDeep, vDefault := violationsAt(7, seed), violationsAt(0, seed); vDeep > vDefault {
			t.Errorf("seed %d: measured violations grew with reduction (%d > %d); the shorter CPM path should see less",
				seed, vDeep, vDefault)
		}
	}
}

func TestTransientArgsValidated(t *testing.T) {
	m := NewReference()
	if _, err := m.Transient("P7", 100, 1, rng.New(1)); err == nil {
		t.Error("bogus chip label accepted")
	}
	if _, err := m.Transient("P0", 0, 1, rng.New(1)); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := m.Transient("P0", 10, -1, rng.New(1)); err == nil {
		t.Error("negative dt accepted")
	}
}

// TestTransientAllocsPerRun: a transient run allocates per run, not per
// control interval, so 10,000 intervals cost the allocations of 100.
// The collector is paused: a cycle the larger run triggers allocates
// in the runtime, not in Transient.
func TestTransientAllocsPerRun(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := NewReference()
	allocs := func(n int) int {
		return int(testing.AllocsPerRun(5, func() {
			if _, err := m.Transient("P0", n, 1.0, rng.New(1)); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if a100, a10k := allocs(100), allocs(10_000); a10k != a100 {
		t.Errorf("Transient allocated %d times at 10,000 steps and %d at 100; want equal", a10k, a100)
	}
}
