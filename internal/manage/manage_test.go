package manage

import (
	"math"
	"testing"

	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/tuning"
	"repro/internal/units"
	"repro/internal/workload"
)

// The manager fixture is expensive (deployment + predictor calibration),
// so it is built once per test binary.
var (
	fixtureMgr *Manager
	fixtureRep *charact.Report
)

func manager(t *testing.T) *Manager {
	t.Helper()
	if fixtureMgr != nil {
		return fixtureMgr
	}
	m := chip.NewReference()
	rep, err := charact.Characterize(m, charact.Options{})
	if err != nil {
		t.Fatalf("Characterize: %v", err)
	}
	dep, err := tuning.Deploy(m, tuning.Options{})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	mg, err := NewManager(m, dep, rep)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	fixtureMgr, fixtureRep = mg, rep
	return mg
}

// TestEq1Slope pins the Fig. 12a measurement: each additional watt of
// chip power costs each core about two MHz, with an excellent linear
// fit.
func TestEq1Slope(t *testing.T) {
	mg := manager(t)
	for label, fp := range mg.Preds.Freq {
		slope := fp.MHzPerWatt()
		if slope < 1.2 || slope > 3.0 {
			t.Errorf("%s Eq.1 slope %.2f MHz/W, want ≈2", label, slope)
		}
		if fp.Fit.R2 < 0.98 {
			t.Errorf("%s Eq.1 fit R² %.4f, want ≈1 (the paper's Fig. 12a is linear)", label, fp.Fit.R2)
		}
	}
}

func TestFreqPredictorInversion(t *testing.T) {
	mg := manager(t)
	fp := mg.Preds.Freq["P0C0"]
	f := units.MHz(fp.Fit.Slope*100 + fp.Fit.Intercept)
	p, ok := fp.PowerForFreq(f)
	if !ok {
		t.Fatal("inversion failed")
	}
	if math.Abs(float64(p)-100) > 1e-6 {
		t.Errorf("PowerForFreq(f(100 W)) = %v", p)
	}
}

// TestPerfPredictorSlopes pins the Fig. 12b structure: compute-bound
// x264 has a much steeper performance-vs-frequency slope than
// memory-bound mcf, and the fits are linear.
func TestPerfPredictorSlopes(t *testing.T) {
	mg := manager(t)
	x := mg.Preds.Perf["x264"]
	m := mg.Preds.Perf["mcf"]
	if x.Fit.Slope <= 2*m.Fit.Slope {
		t.Errorf("x264 slope %.3g not well above mcf slope %.3g", x.Fit.Slope, m.Fit.Slope)
	}
	for name, pp := range mg.Preds.Perf {
		if pp.Fit.Slope <= 0 {
			t.Errorf("%s has non-positive performance slope", name)
		}
		if pp.Fit.R2 < 0.97 {
			t.Errorf("%s performance fit R² %.4f below 0.97", name, pp.Fit.R2)
		}
	}
}

func TestPerfPredictorInversion(t *testing.T) {
	mg := manager(t)
	pp := mg.Preds.Perf["squeezenet"]
	f, ok := pp.FreqForPerf(1.10)
	if !ok {
		t.Fatal("inversion failed")
	}
	if got := pp.Fit.Slope*float64(f) + pp.Fit.Intercept; math.Abs(got-1.10) > 1e-9 {
		t.Errorf("perf(FreqForPerf(1.10)) = %g", got)
	}
	// +10% over static needs well under the fine-tuned ceiling.
	if f < 4400 || f > 4900 {
		t.Errorf("frequency for +10%% squeezenet = %v, expected mid-4000s", f)
	}
}

// TestScenarioLadder is the headline Fig. 14 reproduction: averaged over
// the co-location pairs, the improvement ladder over static margin is
// default ATM ≈ 6%, unmanaged fine-tuned above it, managed-max ≈ 15%.
func TestScenarioLadder(t *testing.T) {
	mg := manager(t)
	pairs := Fig14Pairs()
	avg := map[Scenario]float64{}
	for _, pair := range pairs {
		for _, s := range []Scenario{ScenarioStaticMargin, ScenarioDefaultATM,
			ScenarioFineTunedUnmanaged, ScenarioManagedMax} {
			ev, err := mg.Evaluate(s, pair, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", s, pair.Label(), err)
			}
			avg[s] += ev.Improvement() / float64(len(pairs))
		}
	}
	if avg[ScenarioStaticMargin] != 0 {
		t.Errorf("static margin improvement %.3f, want 0", avg[ScenarioStaticMargin])
	}
	if avg[ScenarioDefaultATM] < 0.045 || avg[ScenarioDefaultATM] > 0.08 {
		t.Errorf("default ATM improvement %.1f%%, paper ≈6.1%%", 100*avg[ScenarioDefaultATM])
	}
	if avg[ScenarioFineTunedUnmanaged] <= avg[ScenarioDefaultATM] {
		t.Error("fine-tuning without management did not beat default ATM")
	}
	if avg[ScenarioManagedMax] < 0.13 || avg[ScenarioManagedMax] > 0.18 {
		t.Errorf("managed-max improvement %.1f%%, paper ≈15.2%%", 100*avg[ScenarioManagedMax])
	}
	if avg[ScenarioManagedMax] <= avg[ScenarioFineTunedUnmanaged] {
		t.Error("management did not beat unmanaged fine-tuning")
	}
}

// TestBalancedMeetsQoS: the balanced scheduler guarantees the 10%
// improvement goal for every pair (Sec. VII-D).
func TestBalancedMeetsQoS(t *testing.T) {
	mg := manager(t)
	for _, pair := range Fig14Pairs() {
		ev, err := mg.Evaluate(ScenarioManagedBalanced, pair, 0.10)
		if err != nil {
			t.Fatalf("%s: %v", pair.Label(), err)
		}
		if !ev.MeetsQoS {
			t.Errorf("%s: balanced schedule missed QoS (%.1f%% < 10%%, bg=%s)",
				pair.Label(), 100*ev.Improvement(), ev.BackgroundSetting)
		}
		if ev.PowerBudget <= 0 {
			t.Errorf("%s: no power budget planned", pair.Label())
		}
	}
}

// TestBalancedBeatsMaxOnBackground: balanced mode trades critical
// headroom for background throughput — background performance must be at
// least managed-max's, and strictly better for pairs where ATM/bg
// headroom exists.
func TestBalancedBeatsMaxOnBackground(t *testing.T) {
	mg := manager(t)
	strictlyBetter := 0
	for _, pair := range Fig14Pairs() {
		evMax, err := mg.Evaluate(ScenarioManagedMax, pair, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		evBal, err := mg.Evaluate(ScenarioManagedBalanced, pair, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if evBal.BackgroundPerf < evMax.BackgroundPerf-1e-9 {
			t.Errorf("%s: balanced background perf %.3f below managed-max %.3f",
				pair.Label(), evBal.BackgroundPerf, evMax.BackgroundPerf)
		}
		if evBal.BackgroundPerf > evMax.BackgroundPerf+1e-9 {
			strictlyBetter++
		}
	}
	if strictlyBetter == 0 {
		t.Error("balanced mode never improved background throughput")
	}
}

// TestStreamclusterKeepsATM: the Sec. VII-D observation — streamcluster
// draws so little power that seq2seq meets its QoS with the co-runner at
// full fine-tuned ATM speed, no throttling needed.
func TestStreamclusterKeepsATM(t *testing.T) {
	mg := manager(t)
	pair := Pair{Critical: workload.MustByName("seq2seq"), Background: workload.MustByName("streamcluster")}
	ev, err := mg.Evaluate(ScenarioManagedBalanced, pair, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if ev.BackgroundSetting != "fine-tuned ATM" {
		t.Errorf("seq2seq:streamcluster throttled to %q; paper leaves it at full ATM", ev.BackgroundSetting)
	}
	if !ev.MeetsQoS {
		t.Error("seq2seq:streamcluster missed QoS at full ATM")
	}
}

// TestX264CoRunnerGetsThrottled: the heavy co-runners of Sec. VII-D
// (x264 for fluidanimate) are throttled to a p-state to protect the
// critical job's budget.
func TestX264CoRunnerGetsThrottled(t *testing.T) {
	mg := manager(t)
	pair := Pair{Critical: workload.MustByName("fluidanimate"), Background: workload.MustByName("x264")}
	ev, err := mg.Evaluate(ScenarioManagedBalanced, pair, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if ev.BackgroundSetting == "fine-tuned ATM" {
		t.Error("x264 co-runner left unthrottled under a 10% QoS")
	}
	if !ev.MeetsQoS {
		t.Errorf("fluidanimate:x264 missed QoS: %.1f%%", 100*ev.Improvement())
	}
}

func TestPairValidation(t *testing.T) {
	bad := Pair{Critical: workload.MustByName("resnet"), Background: workload.MustByName("mcf")}
	if err := bad.Valid(); err == nil {
		t.Error("two memory-intensive workloads co-located")
	}
	if _, err := manager(t).Evaluate(ScenarioManagedMax, bad, 0); err == nil {
		t.Error("Evaluate accepted an invalid pair")
	}
	for _, p := range Fig14Pairs() {
		if err := p.Valid(); err != nil {
			t.Errorf("evaluation pair %s invalid: %v", p.Label(), err)
		}
	}
}

// TestLatencyStudyShape reproduces Fig. 2's ordering for SqueezeNet:
// static 80 ms; every ATM schedule beats it; the best schedule beats the
// worst by roughly 2× the improvement.
func TestLatencyStudyShape(t *testing.T) {
	mg := manager(t)
	pts, err := mg.LatencyStudy(workload.MustByName("squeezenet"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("latency study has %d points", len(pts))
	}
	static, def, worst, best := pts[0], pts[1], pts[2], pts[3]
	if math.Abs(static.LatencyMs-80) > 0.01 {
		t.Errorf("static latency %.1f ms, want 80", static.LatencyMs)
	}
	for _, p := range pts[1:] {
		if p.LatencyMs >= static.LatencyMs {
			t.Errorf("%s latency %.1f not below static 80", p.Name, p.LatencyMs)
		}
	}
	if !(best.LatencyMs < def.LatencyMs && best.LatencyMs < worst.LatencyMs) {
		t.Error("best schedule is not the fastest")
	}
	// Fig. 2: improvements range ~7.5% to ~15%, best ≈ 2× worst.
	gainWorst := 80/worst.LatencyMs - 1
	gainBest := 80/best.LatencyMs - 1
	if gainWorst < 0.04 || gainWorst > 0.11 {
		t.Errorf("worst-schedule gain %.1f%%, paper ≈7.5%%", 100*gainWorst)
	}
	if gainBest < 0.12 || gainBest > 0.20 {
		t.Errorf("best-schedule gain %.1f%%, paper ≈15%%", 100*gainBest)
	}
	if ratio := gainBest / gainWorst; ratio < 1.5 || ratio > 3.5 {
		t.Errorf("best/worst gain ratio %.1f, paper ≈2", ratio)
	}
	if best.LatencyMs < 65 || best.LatencyMs > 72 {
		t.Errorf("best latency %.1f ms, paper ≈68", best.LatencyMs)
	}
}

func TestLatencyStudyRejectsNonLatencyApps(t *testing.T) {
	if _, err := manager(t).LatencyStudy(workload.MustByName("gcc")); err == nil {
		t.Error("latency study accepted a workload with no latency metric")
	}
}

// TestGovernors: conservative never exceeds default reductions;
// aggressive never goes below default (it exploits per-app headroom).
func TestGovernors(t *testing.T) {
	mg := manager(t)
	pair := Fig14Pairs()[0]

	evDefault, err := mg.Evaluate(ScenarioManagedMax, pair, 0)
	if err != nil {
		t.Fatal(err)
	}

	mg.Governor = GovernorConservative
	evCons, err := mg.Evaluate(ScenarioManagedMax, pair, 0)
	if err != nil {
		t.Fatal(err)
	}
	mg.Governor = GovernorAggressive
	evAggr, err := mg.Evaluate(ScenarioManagedMax, pair, 0)
	if err != nil {
		t.Fatal(err)
	}
	mg.Governor = GovernorDefault

	if evCons.CriticalPerf > evDefault.CriticalPerf+1e-9 {
		t.Errorf("conservative governor (%.3f) outperformed default (%.3f)",
			evCons.CriticalPerf, evDefault.CriticalPerf)
	}
	if evAggr.CriticalPerf < evDefault.CriticalPerf-1e-9 {
		t.Errorf("aggressive governor (%.3f) underperformed default (%.3f)",
			evAggr.CriticalPerf, evDefault.CriticalPerf)
	}
}

func TestRobustCores(t *testing.T) {
	_ = manager(t) // populate fixtureRep
	var robust []string
	for _, c := range fixtureRep.Cores {
		if coreIsRobust(fixtureRep, c.Core) {
			robust = append(robust, c.Core)
		}
	}
	if len(robust) == 0 {
		t.Fatal("no robust cores found; Fig. 10 shows several")
	}
	// Robust cores have thread-worst == uBench limit in Table I.
	for _, label := range robust {
		cr, ok := fixtureRep.Core(label)
		if !ok {
			t.Fatal("missing report row")
		}
		if cr.ThreadWorst != cr.UBenchLimit {
			t.Errorf("%s marked robust but rolls back %d steps",
				label, cr.UBenchLimit-cr.ThreadWorst)
		}
	}
	if coreIsRobust(nil, robust[0]) {
		t.Error("a core is robust without a characterization report")
	}
}

func TestEvaluateScenarioMetadata(t *testing.T) {
	mg := manager(t)
	pair := Fig14Pairs()[0]
	ev, err := mg.Evaluate(ScenarioManagedMax, pair, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CriticalCore == "" || ev.ChipPower <= 0 || ev.Supply <= 0 {
		t.Errorf("evaluation metadata incomplete: %+v", ev)
	}
	if ev.CriticalLatencyMs <= 0 {
		t.Error("squeezenet evaluation missing latency")
	}
	if ev.Scenario.String() == "" || ev.Pair.Label() == "" {
		t.Error("labels empty")
	}
}

// TestMachineRestoredAfterEvaluate: Evaluate must leave the machine in
// the reset state so successive evaluations are independent.
func TestMachineRestoredAfterEvaluate(t *testing.T) {
	mg := manager(t)
	if _, err := mg.Evaluate(ScenarioManagedMax, Fig14Pairs()[0], 0.10); err != nil {
		t.Fatal(err)
	}
	for _, c := range mg.M.AllCores() {
		if c.Workload().Name != "idle" || c.Gated() || c.Reduction() != 0 {
			t.Errorf("%s not reset after Evaluate", c.Profile.Label)
		}
	}
}
