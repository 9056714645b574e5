package sentinel

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fakeActuator records calls and lets a test script the world's
// response: reductions step down through `red`, retune resets to
// `retuneTo`, and `fail` makes every call error.
type fakeActuator struct {
	red      int
	retuneTo int
	fail     bool

	stepBacks   int
	retunes     int
	statics     int
	quarantines int
	lastReason  string
}

var errActuator = errors.New("actuator failed")

func (f *fakeActuator) StepBack(core string) (int, error) {
	f.stepBacks++
	if f.fail {
		return f.red, errActuator
	}
	if f.red > 0 {
		f.red--
	}
	return f.red, nil
}

func (f *fakeActuator) Retune(core string) (int, error) {
	f.retunes++
	if f.fail {
		return f.red, errActuator
	}
	f.red = f.retuneTo
	return f.red, nil
}

func (f *fakeActuator) Static(core string) error {
	f.statics++
	if f.fail {
		return errActuator
	}
	f.red = 0
	return nil
}

func (f *fakeActuator) Quarantine(core, reason string) error {
	f.quarantines++
	f.lastReason = reason
	return nil
}

// drive feeds sigma until Observe trips, then Acts; returns the event.
// Fails the test if the threshold never trips within limit samples.
func drive(t *testing.T, s *Sentinel, sigma float64, limit int) Event {
	t.Helper()
	for n := 0; n < limit; n++ {
		if s.Observe(0, sigma) {
			return s.Act(0)
		}
	}
	t.Fatalf("evidence never crossed threshold after %d samples at %.2f sigma", limit, sigma)
	return Event{}
}

func TestHealthyMarginNeverActs(t *testing.T) {
	act := &fakeActuator{red: 5}
	s := New(Config{}, []string{"P0C0"}, act)
	for n := 0; n < 10000; n++ {
		if s.Observe(0, 4.6) {
			t.Fatalf("sentinel acted on a healthy 4.6-sigma margin at sample %d", n)
		}
	}
	if act.stepBacks+act.retunes+act.statics+act.quarantines != 0 {
		t.Fatalf("actuator touched on healthy telemetry: %+v", act)
	}
}

func TestNoiseBelowEvidenceThresholdIgnored(t *testing.T) {
	s := New(Config{}, []string{"P0C0"}, &fakeActuator{red: 5})
	// Alternate dips below alarm with recoveries: the integral bleeds
	// off between dips and must never reach the action threshold.
	for n := 0; n < 5000; n++ {
		sigma := 4.6
		if n%10 == 9 {
			sigma = 2.9
		}
		if s.Observe(0, sigma) {
			t.Fatalf("sentinel acted on transient dips at sample %d", n)
		}
	}
}

func TestEscalationLadderOrder(t *testing.T) {
	act := &fakeActuator{red: 5, retuneTo: 3}
	cfg := Config{RetuneAfterSteps: 2, MaxRetunes: 1}
	s := New(cfg, []string{"P0C0"}, act)

	// Sustained erosion with no improvement: two blind retreats, then a
	// re-characterization (which refreshes the retreat budget), then one
	// more retreat — at which point four consecutive un-recovered
	// actions have tripped the quarantine breaker.
	wantActions := []Action{ActionStepBack, ActionStepBack, ActionRetune, ActionStepBack, ActionQuarantine}
	wantReds := []int{4, 3, 3, 2, 0}
	for i, want := range wantActions {
		ev := drive(t, s, 1.0, 100)
		if ev.Action != want {
			t.Fatalf("rung %d: got %s, want %s", i, ev.Action, want)
		}
		if ev.Err != nil {
			t.Fatalf("rung %d (%s): %v", i, want, ev.Err)
		}
		if (want == ActionStepBack || want == ActionRetune) && ev.Reduction != wantReds[i] {
			t.Fatalf("rung %d (%s): reduction %d, want %d", i, want, ev.Reduction, wantReds[i])
		}
	}
	if !s.cores[0].quarantined {
		t.Fatal("core not quarantined after exhausting the ladder")
	}
	if act.lastReason == "" {
		t.Fatal("quarantine carried no reason")
	}
	// A quarantined core is inert.
	for n := 0; n < 100; n++ {
		if s.Observe(0, -5) {
			t.Fatal("quarantined core still generates actions")
		}
	}
}

func TestStepBackBudgetSpansRecoveries(t *testing.T) {
	act := &fakeActuator{red: 5, retuneTo: 5}
	s := New(Config{RetuneAfterSteps: 2}, []string{"P0C0"}, act)

	recover := func() {
		for n := 0; n < 100; n++ {
			s.Observe(0, 5.0)
		}
	}
	// Two step-backs, each followed by a clean recovery above the
	// hysteresis clear line.
	for i := 0; i < 2; i++ {
		if ev := drive(t, s, 1.0, 100); ev.Action != ActionStepBack {
			t.Fatalf("retreat %d: got %s, want step-back", i, ev.Action)
		}
		recover()
	}
	// Third erosion: the budget of blind retreats is spent, so the
	// ladder escalates to a real re-characterization even though each
	// retreat recovered the margin.
	if ev := drive(t, s, 1.0, 100); ev.Action != ActionRetune {
		t.Fatalf("post-budget action %s, want retune", ev.Action)
	}
	recover()
	// The re-tune refreshed the characterization: retreats are cheap
	// again.
	if ev := drive(t, s, 1.0, 100); ev.Action != ActionStepBack {
		t.Fatalf("post-retune action %s, want step-back", ev.Action)
	}
}

func TestStaticFallbackAfterRetunesExhausted(t *testing.T) {
	act := &fakeActuator{red: 5, retuneTo: 3}
	// A breaker threshold well above the ladder length isolates the
	// ladder's own static rung from breaker-driven quarantine.
	cfg := Config{RetuneAfterSteps: 2, MaxRetunes: 1, BreakerFailures: 100}
	s := New(cfg, []string{"P0C0"}, act)

	want := []Action{
		ActionStepBack, ActionStepBack, ActionRetune,
		ActionStepBack, ActionStepBack, ActionStatic,
		ActionQuarantine, // alarm while static: nothing gentler left
	}
	for i, w := range want {
		ev := drive(t, s, 1.0, 100)
		if ev.Action != w {
			t.Fatalf("rung %d: got %s, want %s", i, ev.Action, w)
		}
	}
	if act.statics != 1 || act.quarantines != 1 {
		t.Fatalf("statics=%d quarantines=%d, want 1 and 1", act.statics, act.quarantines)
	}
}

func TestFailingActuatorTripsQuarantineBreaker(t *testing.T) {
	act := &fakeActuator{red: 5, fail: true}
	s := New(Config{BreakerFailures: 3}, []string{"P0C0"}, act)

	var last Event
	for n := 0; n < 20 && !s.cores[0].quarantined; n++ {
		last = drive(t, s, 1.0, 200)
	}
	if !s.cores[0].quarantined {
		t.Fatal("persistent actuator failure never quarantined the core")
	}
	if last.Action != ActionQuarantine {
		t.Fatalf("final action %s, want quarantine", last.Action)
	}
	if act.quarantines != 1 {
		t.Fatalf("quarantine called %d times, want 1", act.quarantines)
	}
}

func TestObsCountsActions(t *testing.T) {
	reg := obs.NewRegistry()
	act := &fakeActuator{red: 5, retuneTo: 3}
	s := New(Config{Obs: reg, RetuneAfterSteps: 1, MaxRetunes: 1}, []string{"P0C0"}, act)
	for n := 0; n < 5 && !s.cores[0].quarantined; n++ {
		drive(t, s, 1.0, 200)
	}
	for _, c := range []struct {
		action string
		want   int64
	}{
		{"step-back", 2}, {"retune", 1}, {"static-fallback", 1}, {"quarantine", 1},
	} {
		got := reg.Counter("sentinel_actions_total", "action", c.action).Value()
		if got != c.want {
			t.Fatalf("sentinel_actions_total{action=%q} = %d, want %d", c.action, got, c.want)
		}
	}
	if reg.Counter("sentinel_alarms_total").Value() == 0 {
		t.Fatal("no alarms counted")
	}
}

func TestNilSentinelIsInert(t *testing.T) {
	var s *Sentinel
	if s.Observe(0, -10) {
		t.Fatal("nil sentinel observed an action")
	}
	if ev := s.Act(0); ev.Action != ActionNone {
		t.Fatal("nil sentinel acted")
	}
}

func TestOutOfRangeCoreIndex(t *testing.T) {
	s := New(Config{}, []string{"P0C0"}, &fakeActuator{})
	if s.Observe(1, -10) || s.Observe(-1, -10) {
		t.Fatal("out-of-range index generated an action")
	}
	if ev := s.Act(7); ev.Action != ActionNone || ev.Core != "" {
		t.Fatal("out-of-range Act did something")
	}
}

// TestConfigValidate: every value withDefaults would let through to
// weaken or switch off the detector is rejected, naming its field,
// while zero still selects each default.
func TestConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		cfg   Config
		field string // "" when the config is valid
	}{
		{Config{}, ""},
		{Config{Alpha: 1, AlarmSigma: 4.2, ClearSigma: 4.4, Ki: 2, IntegralCap: 3, ActAt: 1,
			RetuneAfterSteps: 2, MaxRetunes: 2, BreakerFailures: 4}, ""},
		{Config{ClearSigma: 4.3}, ""}, // exceeds the default AlarmSigma 4.2
		{Config{AlarmSigma: nan}, "AlarmSigma"},
		{Config{AlarmSigma: -inf}, "AlarmSigma"},
		{Config{AlarmSigma: -1}, "AlarmSigma"},
		{Config{Ki: nan}, "Ki"},
		{Config{Ki: -2}, "Ki"},
		{Config{ActAt: nan}, "ActAt"},
		{Config{ActAt: inf}, "ActAt"},
		{Config{IntegralCap: -3}, "IntegralCap"},
		{Config{Alpha: nan}, "Alpha"},
		{Config{Alpha: -0.25}, "Alpha"},
		{Config{Alpha: 1.5}, "Alpha"},
		{Config{ClearSigma: nan}, "ClearSigma"},
		{Config{ClearSigma: 4.2}, "ClearSigma"},
		{Config{AlarmSigma: 3, ClearSigma: 2}, "ClearSigma"},
		{Config{RetuneAfterSteps: -1}, "RetuneAfterSteps"},
		{Config{MaxRetunes: -1}, "MaxRetunes"},
		{Config{BreakerFailures: -1}, "BreakerFailures"},
	} {
		err := tc.cfg.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v: %v, want valid", tc.cfg, err)
		case tc.field != "" && (err == nil || !strings.Contains(err.Error(), tc.field+" ")):
			t.Errorf("%+v: err = %v, want one naming %s", tc.cfg, err, tc.field)
		}
	}
}
