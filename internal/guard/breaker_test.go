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

	// The first probe success closes the breaker.
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after a probe success = %v, want closed", got)
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

// TestBreakerHalfOpenSuccessThenFailure pins the half-open edges: a
// failed probe re-opens the breaker immediately for a fresh open
// window, and a successful one closes it with the consecutive-failure
// count starting again from zero.
func TestBreakerHalfOpenSuccessThenFailure(t *testing.T) {
	b := NewBreaker(BreakerOptions{FailureThreshold: 2, OpenTicks: 3})
	toHalfOpen := func() {
		for i := 0; b.State() != StateHalfOpen; i++ {
			b.Allow()
			if i > 100 {
				t.Fatal("breaker never reached half-open")
			}
		}
	}

	b.Failure()
	b.Failure()
	toHalfOpen()
	b.Failure() // the probe fails: re-open immediately
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after a failure in half-open = %v, want open", got)
	}
	// The re-trip starts a fresh open window measured from now.
	if b.Allow() {
		t.Fatal("Allow admitted immediately after a half-open re-trip")
	}

	toHalfOpen()
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after a probe success = %v, want closed", got)
	}
	// Closed again, the breaker needs the full threshold to trip.
	b.Failure()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after one failure past a closing probe = %v, want closed", got)
	}
	b.Failure()
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after two failures past a closing probe = %v, want open", got)
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
// tick, and the next half-open round's success closes it.
func TestBreakerHalfOpenRefailRestartsWindow(t *testing.T) {
	var clock int64
	b := NewBreaker(BreakerOptions{
		FailureThreshold: 1,
		OpenTicks:        10,
		Now:              func() int64 { return clock },
	})
	clock = 100
	b.Failure()
	clock = 110
	if !b.Allow() {
		t.Fatal("Allow shed after the first open window elapsed")
	}
	b.Failure() // the probe fails: re-open
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
	b.Success()
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after a probe success = %v, want closed", got)
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

// TestBreakerAllowNEdges pins AllowN's edge cases: a batch of n = 0 or
// less, a window that elapses inside the batch or on its last call on
// the event clock, one that outlasts it, an external clock inside and
// past the window, and the nil breaker. Each batch must answer as n
// Allow calls on the lockedBreaker reference and leave the same state,
// rejection count, obs series and clock, so later calls agree too.
func TestBreakerAllowNEdges(t *testing.T) {
	type step func(b breakerOps, clock *int64)
	trip := func(b breakerOps, _ *int64) { b.Failure() }
	allow := func(b breakerOps, _ *int64) { b.Allow() }
	at := func(tick int64) step { return func(_ breakerOps, clock *int64) { *clock = tick } }
	cases := []struct {
		name      string
		external  bool
		openTicks int64
		setup     []step
		n         int
		admitted  int
		rejected  int64
		state     State
		toHalf    int64
	}{
		{"zero calls on an open breaker", false, 4, []step{trip}, 0, 0, 0, StateOpen, 0},
		{"negative n on an open breaker", false, 4, []step{trip}, -3, 0, 0, StateOpen, 0},
		{"closed breaker", false, 4, nil, 5, 5, 0, StateClosed, 0},
		{"window elapses inside the batch", false, 4, []step{trip}, 10, 7, 3, StateHalfOpen, 1},
		{"window elapses on the last call", false, 4, []step{trip}, 4, 1, 3, StateHalfOpen, 1},
		{"window outlasts the batch", false, 8, []step{trip}, 5, 0, 5, StateOpen, 0},
		{"window partly spent by single calls", false, 4, []step{trip, allow, allow}, 3, 2, 1, StateHalfOpen, 1},
		{"window elapsed on a single call", false, 2, []step{trip, allow, allow}, 3, 3, 0, StateHalfOpen, 1},
		{"external clock inside the window", true, 10, []step{at(100), trip, at(105)}, 6, 0, 6, StateOpen, 0},
		{"external clock past the window", true, 10, []step{at(100), trip, at(110)}, 6, 6, 0, StateHalfOpen, 1},
		{"half-open again after a failed probe", false, 3, []step{trip, allow, allow, allow, trip}, 4, 2, 2, StateHalfOpen, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var clocks [2]int64
			regs := [2]*obs.Registry{obs.NewRegistry(), obs.NewRegistry()}
			opts := func(k int) BreakerOptions {
				o := BreakerOptions{Name: "edge", FailureThreshold: 1, OpenTicks: c.openTicks, Obs: regs[k]}
				if c.external {
					o.Now = func() int64 { return clocks[k] }
				}
				return o
			}
			b, ref := NewBreaker(opts(0)), newLockedBreaker(opts(1))
			for _, s := range c.setup {
				s(b, &clocks[0])
				s(ref, &clocks[1])
			}
			rejectedBefore := b.Rejected()
			got, want := b.AllowN(c.n), ref.AllowN(c.n)
			if got != c.admitted || got != want {
				t.Fatalf("AllowN(%d) admitted %d, want %d (reference %d)", c.n, got, c.admitted, want)
			}
			if d := b.Rejected() - rejectedBefore; d != c.rejected || b.Rejected() != ref.Rejected() {
				t.Fatalf("AllowN(%d) shed %d, want %d (reference total %d, breaker %d)", c.n, d, c.rejected, ref.Rejected(), b.Rejected())
			}
			if b.State() != c.state || ref.State() != c.state {
				t.Fatalf("state %v after AllowN(%d), want %v (reference %v)", b.State(), c.n, c.state, ref.State())
			}
			if v := regs[0].Counter("guard_breaker_transitions_total", "name", "edge", "to", "half-open").Value(); v != c.toHalf {
				t.Fatalf("%d half-open transitions, want %d", v, c.toHalf)
			}
			// Equal clocks answer the next calls alike.
			b.Failure()
			ref.Failure()
			for k := 0; k < 12; k++ {
				if g, w := b.Allow(), ref.Allow(); g != w {
					t.Fatalf("call %d after AllowN(%d) admits %v, reference %v", k, c.n, g, w)
				}
			}
			if g, w := string(regs[0].SnapshotJSON()), string(regs[1].SnapshotJSON()); g != w {
				t.Fatalf("obs series differ from the reference:\n%s\n%s", g, w)
			}
		})
	}
	var nilB *Breaker
	if got := nilB.AllowN(3); got != 3 {
		t.Fatalf("nil breaker AllowN(3) = %d, want 3", got)
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
	AllowN(n int) int
	Success()
	Failure()
	State() State
	Rejected() int64
}

// breakerTrace replays a byte-encoded op sequence against a fresh
// breaker from mk and returns a deterministic trace of every
// observable: each Allow answer, the state and rejection count after
// every op, and the final obs snapshot. op%4 selects Allow (AllowN of
// op>>3 calls when op&4 is set), Success, Failure or a clock step of
// op>>5 ticks; with external unset the breaker runs on its own event
// clock and never reads the stepped one.
func breakerTrace(ops []byte, external bool, mk func(BreakerOptions) breakerOps) string {
	reg := obs.NewRegistry()
	var clock int64
	o := BreakerOptions{
		Name:             "fuzz",
		FailureThreshold: 3,
		OpenTicks:        5,
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
			if op&4 != 0 {
				out += fmt.Sprintf("n%d", b.AllowN(int(op>>3)))
			} else {
				out += fmt.Sprintf("a%v", b.Allow())
			}
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
	f.Add([]byte{2, 2, 2, 12, 1, 2, 0, 0, 4, 60, 1, 1, 2, 2, 2, 35, 20, 99, 28, 2, 252})
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
		b := NewBreaker(BreakerOptions{FailureThreshold: 3, OpenTicks: 5})
		rejectedWhileNotOpen := false
		for _, op := range ops {
			before := b.State()
			switch op % 4 {
			case 0:
				if op&4 != 0 {
					if n := int(op >> 3); b.AllowN(n) != n && before != StateOpen {
						rejectedWhileNotOpen = true
					}
				} else if !b.Allow() && before != StateOpen {
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

// AllowN is n Allow calls in a row.
func (b *lockedBreaker) AllowN(n int) int {
	admitted := 0
	for range n {
		if b.Allow() {
			admitted++
		}
	}
	return admitted
}

func (b *lockedBreaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.fails = 0
	case StateHalfOpen:
		b.setState(StateClosed)
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

// TestBreakerConcurrentAllow races Allow callers, and AllowN callers
// asking three at a time, against one goroutine that trips the
// breaker, ages it past its open window and closes it again, round
// after round. Every shed answer must be counted: the callers' false
// returns and refused batch calls equal Rejected(). Each round waits
// until a caller has been shed and until a caller has half-opened the
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
				if w%2 == 1 {
					n += int64(3 - b.AllowN(3))
				} else if !b.Allow() {
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
