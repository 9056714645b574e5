package sentinel

import (
	"errors"
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

// recoverCore feeds a healthy margin until the alarm has cleared.
func recoverCore(s *Sentinel) {
	for n := 0; n < 100; n++ {
		s.Observe(0, 5.0)
	}
}

func TestHealthyMarginNeverActs(t *testing.T) {
	act := &fakeActuator{red: 5}
	s := New([]string{"P0C0"}, act, nil, nil)
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
	s := New([]string{"P0C0"}, &fakeActuator{red: 5}, nil, nil)
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
	s := New([]string{"P0C0"}, act, nil, nil)

	// Sustained erosion with no improvement: two blind retreats, then a
	// re-characterization (which refreshes the retreat budget), then one
	// more retreat — at which point four consecutive un-recovered
	// actions retire the core.
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
	s := New([]string{"P0C0"}, act, nil, nil)
	recover := func() { recoverCore(s) }
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
	s := New([]string{"P0C0"}, act, nil, nil)

	// Each action recovers the margin before the next erosion, so no
	// recovery fails and the ladder runs to its own static rung.
	want := []Action{
		ActionStepBack, ActionStepBack, ActionRetune,
		ActionStepBack, ActionStepBack, ActionRetune,
		ActionStepBack, ActionStepBack, ActionStatic,
		ActionQuarantine, // alarm while static: nothing gentler left
	}
	for i, w := range want {
		ev := drive(t, s, 1.0, 100)
		if ev.Action != w {
			t.Fatalf("rung %d: got %s, want %s", i, ev.Action, w)
		}
		recoverCore(s)
	}
	if act.statics != 1 || act.quarantines != 1 {
		t.Fatalf("statics=%d quarantines=%d, want 1 and 1", act.statics, act.quarantines)
	}
}

// TestRetiresAfterFourConsecutiveFailedRecoveries: three failed
// recoveries, then a recovery, then three more leave the core in
// service; a fourth failure in a row retires it.
func TestRetiresAfterFourConsecutiveFailedRecoveries(t *testing.T) {
	reg := obs.NewRegistry()
	act := &fakeActuator{red: 20, retuneTo: 20}
	s := New([]string{"P0C0"}, act, reg, nil)
	for i := 0; i < 4; i++ {
		// The first action is no failure; each later one counts the
		// one before it, whose alarm never cleared.
		if ev := drive(t, s, 1.0, 100); ev.Action == ActionQuarantine {
			t.Fatalf("action %d retired the core after %d failed recoveries", i, i)
		}
	}
	recoverCore(s)
	for i := 0; i < 4; i++ {
		if ev := drive(t, s, 1.0, 100); ev.Action == ActionQuarantine {
			t.Fatalf("action %d after the recovery retired the core after %d failed recoveries", i, i)
		}
	}
	if s.cores[0].quarantined {
		t.Fatal("core retired after three consecutive failed recoveries")
	}
	if ev := drive(t, s, 1.0, 100); ev.Action != ActionQuarantine {
		t.Fatalf("fourth consecutive failed recovery: got %s, want quarantine", ev.Action)
	}
	if act.quarantines != 1 || act.statics != 0 {
		t.Fatalf("quarantines=%d statics=%d, want 1 and 0", act.quarantines, act.statics)
	}
	if got := reg.Counter("sentinel_recovery_failures_total").Value(); got != 7 {
		t.Fatalf("sentinel_recovery_failures_total = %d, want 7", got)
	}
}

func TestFailingActuatorTripsQuarantineBreaker(t *testing.T) {
	act := &fakeActuator{red: 5, fail: true}
	s := New([]string{"P0C0"}, act, nil, nil)

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
	s := New([]string{"P0C0"}, act, reg, nil)
	for n := 0; n < 10 && !s.cores[0].quarantined; n++ {
		drive(t, s, 1.0, 200)
		recoverCore(s)
	}
	for _, c := range []struct {
		action string
		want   int64
	}{
		{"step-back", 6}, {"retune", 2}, {"static-fallback", 1}, {"quarantine", 1},
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
	s := New([]string{"P0C0"}, &fakeActuator{}, nil, nil)
	if s.Observe(1, -10) || s.Observe(-1, -10) {
		t.Fatal("out-of-range index generated an action")
	}
	if ev := s.Act(7); ev.Action != ActionNone || ev.Core != "" {
		t.Fatal("out-of-range Act did something")
	}
}
