package manage

import (
	"math"
	"strings"
	"testing"

	"repro/internal/units"
	"repro/internal/workload"
)

// TestImpossibleQoSFallsToGating: a QoS target beyond what even a lone
// critical core can deliver drives the planner through the whole ladder
// to power gating, and the evaluation honestly reports the miss.
func TestImpossibleQoSFallsToGating(t *testing.T) {
	mg := manager(t)
	pair := Pair{Critical: workload.MustByName("squeezenet"), Background: workload.MustByName("lu_cb")}
	ev, err := mg.Evaluate(ScenarioManagedBalanced, pair, 0.60) // +60% is unreachable
	if err != nil {
		t.Fatal(err)
	}
	if ev.MeetsQoS {
		t.Errorf("+60%% QoS reported as met (%.1f%%)", 100*ev.Improvement())
	}
	if ev.BackgroundSetting != "power-gated" {
		t.Errorf("planner chose %q for an impossible target; expected the gating fallback",
			ev.BackgroundSetting)
	}
	// Gated co-runners: background performance is zero.
	if ev.BackgroundPerf != 0 {
		t.Errorf("gated background reports perf %.2f", ev.BackgroundPerf)
	}
	// Gating still yields the best achievable critical frequency.
	evMax, err := mg.Evaluate(ScenarioManagedMax, pair, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.CriticalFreq < evMax.CriticalFreq {
		t.Errorf("gated-run critical %v below managed-max %v", ev.CriticalFreq, evMax.CriticalFreq)
	}
}

// TestBalancedRejectsZeroQoS: balanced mode requires a finite, positive
// target. A negative, NaN or infinite one is no target either and gets
// the same error, instead of a plan built on a NaN or infinite
// frequency.
func TestBalancedRejectsZeroQoS(t *testing.T) {
	mg := manager(t)
	pair := Fig14Pairs()[0]
	_, want := mg.Evaluate(ScenarioManagedBalanced, pair, 0)
	if want == nil {
		t.Fatal("balanced scheduling without a QoS target accepted")
	}
	for _, q := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := mg.Evaluate(ScenarioManagedBalanced, pair, q); err == nil || err.Error() != want.Error() {
			t.Errorf("QoS target %v: error %v, want %v", q, err, want)
		}
	}
}

// TestBudgetClampedToThermalEnvelope: the planned budget never exceeds
// what the package can sustain.
func TestBudgetClampedToThermalEnvelope(t *testing.T) {
	mg := manager(t)
	var envelope units.Watt
	for _, c := range mg.M.Chips {
		if c.Profile.Label == mg.ChipLabel {
			envelope = c.Thermal.MaxPower()
		}
	}
	for _, pair := range Fig14Pairs() {
		ev, err := mg.Evaluate(ScenarioManagedBalanced, pair, 0.10)
		if err != nil {
			t.Fatal(err)
		}
		if ev.PowerBudget > envelope+1e-9 {
			t.Errorf("%s: budget %v above envelope %v", pair.Label(), ev.PowerBudget, envelope)
		}
	}
}

// TestScenarioStringNames pin the CLI-facing scenario names.
func TestScenarioStringNames(t *testing.T) {
	names := map[Scenario]string{
		ScenarioStaticMargin:       "static-margin",
		ScenarioDefaultATM:         "default-atm",
		ScenarioFineTunedUnmanaged: "fine-tuned-unmanaged",
		ScenarioManagedMax:         "managed-max",
		ScenarioManagedBalanced:    "managed-balanced",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	for _, g := range []Governor{GovernorDefault, GovernorConservative, GovernorAggressive} {
		if strings.Contains(g.String(), "governor(") {
			t.Errorf("governor %d has no name", int(g))
		}
	}
}

// TestUnknownScenarioRejected: Evaluate validates the scenario value.
func TestUnknownScenarioRejected(t *testing.T) {
	mg := manager(t)
	if _, err := mg.Evaluate(Scenario(99), Fig14Pairs()[0], 0); err == nil {
		t.Error("unknown scenario accepted")
	}
}
