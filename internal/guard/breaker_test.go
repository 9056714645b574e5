package guard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func TestBreakerStateMachine(t *testing.T) {
	reg := obs.NewRegistry()
	b := NewBreaker(BreakerOptions{
		Name:             "t",
		FailureThreshold: 3,
		OpenTicks:        4,
		HalfOpenProbes:   2,
		Obs:              reg,
	})

	if got := b.State(); got != StateClosed {
		t.Fatalf("initial state = %v, want closed", got)
	}

	// Failures below the threshold keep the breaker closed; a success
	// resets the consecutive count.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after interleaved failures = %v, want closed", got)
	}

	// Third consecutive failure trips it open.
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after threshold = %v, want open", got)
	}

	// While open, requests are shed until OpenTicks of logical time
	// elapse. On the event clock each shed itself is a tick, so an
	// OpenTicks=4 window sheds exactly 3 requests before the attempt at
	// elapsed=4 is admitted as the probe.
	var shed int
	for b.State() == StateOpen {
		if b.Allow() {
			break
		}
		shed++
		if shed > 100 {
			t.Fatal("breaker never left open state")
		}
	}
	if shed != 3 {
		t.Fatalf("shed %d requests while open, want 3 (OpenTicks-1)", shed)
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after open window = %v, want half-open", got)
	}
	if got := b.Rejected(); got != 3 {
		t.Fatalf("Rejected() = %d, want 3", got)
	}

	// One probe success is not enough with HalfOpenProbes=2.
	b.Success()
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1 probe = %v, want half-open", got)
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after 2 probes = %v, want closed", got)
	}

	// A failure in half-open re-opens immediately.
	b.Failure()
	b.Failure()
	b.Failure()
	for i := 0; i < 4; i++ {
		b.Allow()
	}
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after half-open failure = %v, want open", got)
	}
}

// TestBreakerTripsExactlyAtThreshold pins the off-by-one edge: the
// breaker stays closed through FailureThreshold-1 consecutive failures
// and opens on exactly the FailureThreshold-th — not one later.
func TestBreakerTripsExactlyAtThreshold(t *testing.T) {
	const threshold = 4
	b := NewBreaker(BreakerOptions{FailureThreshold: threshold, OpenTicks: 4})
	for i := 0; i < threshold-1; i++ {
		b.Failure()
		if got := b.State(); got != StateClosed {
			t.Fatalf("state after %d failure(s) = %v, want closed", i+1, got)
		}
	}
	// A success here must clear the count: the threshold is about
	// consecutive failures, so the full budget is available again.
	b.Success()
	for i := 0; i < threshold-1; i++ {
		b.Failure()
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state at threshold-1 after reset = %v, want closed", got)
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state at exactly %d consecutive failures = %v, want open", threshold, got)
	}
}

// TestBreakerHalfOpenSuccessThenFailure pins the probe-reset edge: a
// half-open breaker that sees a success and then a failure re-opens
// immediately, sheds for a fresh open window, and — critically — the
// partial probe credit is forgotten, so the next half-open round still
// needs the full HalfOpenProbes consecutive successes to close.
func TestBreakerHalfOpenSuccessThenFailure(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, OpenTicks: 3, HalfOpenProbes: 2})
	toHalfOpen := func() {
		for i := 0; b.State() != StateHalfOpen; i++ {
			b.Allow()
			if i > 100 {
				t.Fatal("breaker never reached half-open")
			}
		}
	}

	b.Failure()
	toHalfOpen()
	b.Success() // one probe of the two needed
	b.Failure() // probe round fails: re-open immediately
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after success-then-failure in half-open = %v, want open", got)
	}
	// The re-trip starts a fresh open window measured from now.
	if b.Allow() {
		t.Fatal("Allow admitted immediately after a half-open re-trip")
	}

	toHalfOpen()
	// The earlier probe success must not carry over: one success is
	// still one short of HalfOpenProbes.
	b.Success()
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1 fresh probe = %v, want half-open (stale probe credit leaked)", got)
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after full probe round = %v, want closed", got)
	}
}

// TestBreakerExternalClock drives the open window on an external clock
// and pins the contract on BreakerOptions.Now: Allow reads the clock
// only on an open breaker, and a trip reads it once to stamp the window.
func TestBreakerExternalClock(t *testing.T) {
	var clock, reads int64
	b := NewBreaker(BreakerOptions{
		FailureThreshold: 1,
		OpenTicks:        10,
		Now:              func() int64 { reads++; return clock },
	})
	allow := func(when string, want bool, wantReads int64) {
		t.Helper()
		reads = 0
		if got := b.Allow(); got != want {
			t.Fatalf("%s: Allow = %v, want %v", when, got, want)
		}
		if reads != wantReads {
			t.Fatalf("%s: Allow read the clock %d times, want %d", when, reads, wantReads)
		}
	}
	allow("closed", true, 0)
	clock = 100
	reads = 0
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state = %v, want open", got)
	}
	if reads != 1 {
		t.Fatalf("trip read the clock %d times, want 1", reads)
	}
	clock = 105
	allow("inside the open window", false, 1)
	clock = 110
	allow("after the open window", true, 1)
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	allow("half-open", true, 0)
	b.Success()
	allow("closed again", true, 0)
}

// TestBreakerHalfOpenRefailRestartsWindow drives the dc re-admission
// pattern on the logical tick clock: a probe that fails in half-open
// re-opens the breaker, the open window restarts from the NEW trip
// tick, and the next half-open round starts with zero probe credit —
// a banked success from the failed round must not count.
func TestBreakerHalfOpenRefailRestartsWindow(t *testing.T) {
	var clock int64
	b := NewBreaker(BreakerOptions{
		FailureThreshold: 1,
		OpenTicks:        10,
		HalfOpenProbes:   2,
		Now:              func() int64 { return clock },
	})
	clock = 100
	b.Failure()
	clock = 110
	if !b.Allow() {
		t.Fatal("Allow shed after the first open window elapsed")
	}
	b.Success() // one probe credit banked...
	b.Failure() // ...then the probe round fails: re-open
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after half-open failure = %v, want open", got)
	}
	// The re-opened window runs from tick 110, not the original trip
	// at tick 100.
	for _, tick := range []int64{111, 115, 119} {
		clock = tick
		if b.Allow() {
			t.Fatalf("Allow admitted at tick %d inside the restarted window (stale trip tick honored)", tick)
		}
	}
	clock = 120
	if !b.Allow() {
		t.Fatal("Allow shed after the restarted window elapsed")
	}
	// The banked success from the failed round must not survive: the
	// new half-open round needs the full probe count.
	b.Success()
	if got := b.State(); got != StateHalfOpen {
		t.Fatalf("state after 1 probe success = %v, want half-open (stale probe credit survived the re-trip)", got)
	}
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after full probe round = %v, want closed", got)
	}
}

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() {
		t.Fatal("nil breaker shed a request")
	}
	b.Success()
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("nil breaker State() = %v, want closed", got)
	}
	if got := b.Rejected(); got != 0 {
		t.Fatalf("nil breaker Rejected() = %d, want 0", got)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{
		StateClosed:   "closed",
		StateOpen:     "open",
		StateHalfOpen: "half-open",
		State(42):     "invalid",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// breakerOps is what the op-sequence replays drive: Breaker, or the
// lockedBreaker reference.
type breakerOps interface {
	Allow() bool
	Success()
	Failure()
	State() State
	Rejected() int64
}

// breakerTrace replays a byte-encoded op sequence against a fresh
// breaker from mk and returns a deterministic trace of every
// observable: each Allow answer, the state and rejection count after
// every op, and the final obs snapshot. op%4 selects Allow, Success,
// Failure or a clock step of op>>5 ticks; with external unset the
// breaker runs on its own event clock and never reads the stepped one.
func breakerTrace(ops []byte, external bool, mk func(BreakerOptions) breakerOps) string {
	reg := obs.NewRegistry()
	var clock int64
	o := BreakerOptions{
		Name:             "fuzz",
		FailureThreshold: 3,
		OpenTicks:        5,
		HalfOpenProbes:   2,
		Obs:              reg,
	}
	if external {
		o.Now = func() int64 { return clock }
	}
	b := mk(o)
	out := ""
	for _, op := range ops {
		switch op % 4 {
		case 0:
			out += fmt.Sprintf("a%v", b.Allow())
		case 1:
			b.Success()
			out += "s"
		case 2:
			b.Failure()
			out += "f"
		case 3:
			clock += int64(op >> 5)
			out += "t"
		}
		out += b.State().String()[:1] + fmt.Sprint(b.Rejected())
	}
	return out + "|" + string(reg.SnapshotJSON())
}

func newBreakerOps(o BreakerOptions) breakerOps { return NewBreaker(o) }

func newLockedBreakerOps(o BreakerOptions) breakerOps { return newLockedBreaker(o) }

// FuzzGuardBreaker checks that any op sequence, on the event clock and
// on an external clock, (a) replays to a byte-identical trace — the
// breaker is a pure function of its input history — (b) matches the
// lockedBreaker reference observable for observable, and (c) never
// violates the state invariants.
func FuzzGuardBreaker(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 2, 0, 0, 0, 0, 0, 1, 1})
	f.Add([]byte{0, 1, 2, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{2, 2, 2, 2, 2, 0, 0, 0, 0, 0, 0, 1, 2, 0})
	f.Add([]byte{2, 2, 2, 0, 35, 0, 99, 0, 1, 0, 1, 2, 0, 163, 0, 2, 227, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		for _, external := range []bool{false, true} {
			t1 := breakerTrace(ops, external, newBreakerOps)
			t2 := breakerTrace(ops, external, newBreakerOps)
			if t1 != t2 {
				t.Fatalf("external=%v: breaker trace not deterministic:\n%s\n%s", external, t1, t2)
			}
			if ref := breakerTrace(ops, external, newLockedBreakerOps); t1 != ref {
				t.Fatalf("external=%v: breaker diverged from the locked reference:\n%s\n%s", external, t1, ref)
			}
		}

		// Invariants over a single replay.
		b := NewBreaker(BreakerOptions{FailureThreshold: 3, OpenTicks: 5, HalfOpenProbes: 2})
		rejectedWhileNotOpen := false
		for _, op := range ops {
			before := b.State()
			switch op % 4 {
			case 0:
				if !b.Allow() && before != StateOpen {
					rejectedWhileNotOpen = true
				}
			case 1:
				b.Success()
			case 2:
				b.Failure()
			}
			if s := b.State(); s != StateClosed && s != StateOpen && s != StateHalfOpen {
				t.Fatalf("invalid state %v", s)
			}
		}
		if rejectedWhileNotOpen {
			t.Fatal("breaker shed a request while not open")
		}
	})
}

// lockedBreaker is the breaker's logic without the admit-all fast
// path: every Allow takes the lock and reads the clock.
// FuzzGuardBreaker checks Breaker against it.
type lockedBreaker struct {
	opt BreakerOptions

	mu       sync.Mutex
	state    State
	fails    int
	probes   int
	openedAt int64
	events   int64
	rejected int64

	rejectedC *obs.Counter
	stateG    *obs.Gauge
	toOpenC   *obs.Counter
	toHalfC   *obs.Counter
	toClosedC *obs.Counter
}

func newLockedBreaker(o BreakerOptions) *lockedBreaker {
	o = o.withDefaults()
	b := &lockedBreaker{opt: o}
	if o.Obs != nil {
		b.rejectedC = o.Obs.Counter("guard_breaker_rejected_total", "name", o.Name)
		b.stateG = o.Obs.Gauge("guard_breaker_state", "name", o.Name)
		b.toOpenC = o.Obs.Counter("guard_breaker_transitions_total", "name", o.Name, "to", "open")
		b.toHalfC = o.Obs.Counter("guard_breaker_transitions_total", "name", o.Name, "to", "half-open")
		b.toClosedC = o.Obs.Counter("guard_breaker_transitions_total", "name", o.Name, "to", "closed")
		b.stateG.Set(float64(StateClosed))
	}
	return b
}

func (b *lockedBreaker) now() int64 {
	if b.opt.Now != nil {
		return b.opt.Now()
	}
	b.events++
	return b.events
}

func (b *lockedBreaker) setState(s State) {
	if b.state == s {
		return
	}
	b.state = s
	b.stateG.Set(float64(s))
	switch s {
	case StateOpen:
		b.toOpenC.Inc()
	case StateHalfOpen:
		b.toHalfC.Inc()
	case StateClosed:
		b.toClosedC.Inc()
	}
}

func (b *lockedBreaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	switch b.state {
	case StateOpen:
		if now-b.openedAt >= b.opt.OpenTicks {
			b.probes = 0
			b.setState(StateHalfOpen)
			return true
		}
		b.rejected++
		b.rejectedC.Inc()
		return false
	default:
		return true
	}
}

func (b *lockedBreaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.fails = 0
	case StateHalfOpen:
		b.probes++
		if b.probes >= b.opt.HalfOpenProbes {
			b.fails = 0
			b.setState(StateClosed)
		}
	}
}

func (b *lockedBreaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.fails++
		if b.fails >= b.opt.FailureThreshold {
			b.trip()
		}
	case StateHalfOpen:
		b.trip()
	}
}

func (b *lockedBreaker) trip() {
	b.fails = 0
	b.probes = 0
	if b.opt.Now != nil {
		b.openedAt = b.opt.Now()
	} else {
		b.openedAt = b.events
	}
	b.setState(StateOpen)
}

func (b *lockedBreaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *lockedBreaker) Rejected() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}

// TestBreakerConcurrentAllow races Allow callers against one goroutine
// that trips the breaker, ages it past its open window and closes it
// again, round after round. Every shed answer must be counted: the
// callers' false returns equal Rejected(). Each round waits until a
// caller has been shed and until a caller's Allow has half-opened the
// breaker, so every round crosses the locked path and the fast path.
func TestBreakerConcurrentAllow(t *testing.T) {
	var clock atomic.Int64
	b := NewBreaker(BreakerOptions{FailureThreshold: 1, OpenTicks: 4, Now: clock.Load})
	var (
		stop atomic.Bool
		shed atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for !stop.Load() {
				if !b.Allow() {
					n++
				}
			}
			shed.Add(n)
		}()
	}
	for round := 0; round < 50; round++ {
		before := b.Rejected()
		b.Failure()
		for b.Rejected() == before {
			runtime.Gosched()
		}
		clock.Add(4)
		for b.State() == StateOpen {
			runtime.Gosched()
		}
		b.Success()
		if got := b.State(); got != StateClosed {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("round %d: state after a half-open success = %v, want closed", round, got)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got, want := shed.Load(), b.Rejected(); got != want {
		t.Fatalf("callers saw %d shed answers, Rejected() = %d", got, want)
	}
}
