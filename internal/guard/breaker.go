package guard

import (
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// State is a circuit breaker's position.
type State int

// The breaker states.
const (
	// StateClosed: traffic flows; consecutive failures are counted.
	StateClosed State = iota
	// StateOpen: traffic is shed until the open window (OpenTicks of
	// logical time) elapses.
	StateOpen
	// StateHalfOpen: probe traffic flows; the first success closes the
	// breaker, a failure re-opens it.
	StateHalfOpen
)

func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// BreakerOptions configures a Breaker. The zero value selects the
// defaults noted on each field.
type BreakerOptions struct {
	// Name labels the breaker's metric series. Default "default".
	Name string
	// FailureThreshold is how many consecutive failures trip the
	// breaker open. Default 5.
	FailureThreshold int
	// OpenTicks is how long (in logical ticks) the breaker stays open
	// before admitting probes. Default 8.
	OpenTicks int64
	// Now supplies the logical clock. Nil selects the breaker's own
	// event clock: one tick per Allow call on an open breaker, so the
	// open window is measured in admission attempts and the schedule
	// is deterministic with no external clock at all. Now must be a
	// pure read with no side effects: a breaker that is not open
	// answers Allow without calling it.
	Now func() int64
	// Obs, when non-nil, exports guard_breaker_state (0 closed, 1
	// open, 2 half-open), guard_breaker_rejected_total and
	// guard_breaker_transitions_total{to=...} under the breaker name.
	Obs *obs.Registry
}

func (o BreakerOptions) withDefaults() BreakerOptions {
	if o.Name == "" {
		o.Name = "default"
	}
	if o.FailureThreshold == 0 {
		o.FailureThreshold = 5
	}
	if o.OpenTicks == 0 {
		o.OpenTicks = 8
	}
	return o
}

// Breaker is a deterministic circuit breaker (closed → open →
// half-open) driven by logical time. The nil *Breaker is the disabled
// guard: Allow always admits, Success/Failure no-op, State reports
// closed.
//
//atm:nilsafe
type Breaker struct {
	opt BreakerOptions

	// admitAll is true while the breaker is not open. Allow then has
	// nothing to decide and answers true without the lock. The clock
	// only times the open window, so it need not advance meanwhile.
	// What this saves is an uncontended lock, a defer and a clock read
	// per call, which a CPU profile of the dc placement scan once put
	// at 23 ns; it is not there for lock contention. The scan still
	// asks every chip's breaker on each attempt it scores, and fsp
	// sessions on every request. A dc pass carried over unscored asks
	// each breaker once, through AllowN.
	// Written by NewBreaker and, under mu, by setState.
	admitAll atomic.Bool

	mu       sync.Mutex
	state    State
	fails    int   // consecutive failures while closed
	openedAt int64 // logical time the breaker last opened
	events   int64 // internal event clock (used when opt.Now == nil)
	rejected int64

	rejectedC *obs.Counter
	stateG    *obs.Gauge
	toOpenC   *obs.Counter
	toHalfC   *obs.Counter
	toClosedC *obs.Counter
}

// NewBreaker returns a closed breaker.
func NewBreaker(o BreakerOptions) *Breaker {
	o = o.withDefaults()
	b := &Breaker{opt: o}
	if o.Obs != nil {
		b.rejectedC = o.Obs.Counter("guard_breaker_rejected_total", "name", o.Name)
		b.stateG = o.Obs.Gauge("guard_breaker_state", "name", o.Name)
		b.toOpenC = o.Obs.Counter("guard_breaker_transitions_total", "name", o.Name, "to", "open")
		b.toHalfC = o.Obs.Counter("guard_breaker_transitions_total", "name", o.Name, "to", "half-open")
		b.toClosedC = o.Obs.Counter("guard_breaker_transitions_total", "name", o.Name, "to", "closed")
		b.stateG.Set(float64(StateClosed))
	}
	b.admitAll.Store(true)
	return b
}

// setState transitions and updates the exported gauge/counters.
// Caller holds mu.
func (b *Breaker) setState(s State) {
	if b.state == s {
		return
	}
	b.state = s
	b.admitAll.Store(s != StateOpen)
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

// Allow reports whether a request may proceed. A breaker that is not
// open admits without locking. An open one advances the logical clock
// one tick (on the internal event clock) and performs the open →
// half-open transition when the open window has elapsed. A shed
// request must not reach the protected resource; the caller answers
// its protocol's busy line in-band instead.
//
//atm:hotpath
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	if b.admitAll.Load() {
		return true
	}
	return b.allowLocked()
}

// allowLocked is Allow's decision under the lock, taken when the flag
// says the breaker is open. It holds the lock itself so that Allow
// stays small enough to inline.
//
//atm:hotpath
func (b *Breaker) allowLocked() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.admitOpen(1) != 0
}

// AllowN answers n Allow calls in a row and returns how many of them
// admit. State, rejection count, obs series and event clock end where
// the n calls would leave them, including the call on which the open
// window elapses: the calls shed before it and the half-open
// transition on it. The admitted calls are always the last ones, so
// the count is the whole answer. n ≤ 0 changes nothing.
//
//atm:hotpath
func (b *Breaker) AllowN(n int) int {
	if b == nil || n <= 0 || b.admitAll.Load() {
		return max(n, 0)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return int(b.admitOpen(int64(n)))
}

// admitOpen decides n ≥ 1 Allow calls in a row and returns how many
// admit. Caller holds mu. On the internal event clock the k-th call
// reads the clock at events+k, so the open window elapses on the first
// k with events+k−openedAt ≥ OpenTicks; an external clock is read once
// and holds for all n calls. The calls before the elapsing one are
// shed. It and the calls after it admit, the later ones on the
// half-open fast path, which neither reads nor ticks the clock.
//
//atm:hotpath
func (b *Breaker) admitOpen(n int64) int64 {
	if b.state != StateOpen {
		return n
	}
	elapsesAt := n + 1 // past the batch: the window outlasts it
	if b.opt.Now != nil {
		if b.opt.Now()-b.openedAt >= b.opt.OpenTicks {
			elapsesAt = 1
		}
	} else {
		elapsesAt = min(max(b.opt.OpenTicks-(b.events-b.openedAt), 1), elapsesAt)
		b.events += min(elapsesAt, n)
	}
	shed := elapsesAt - 1
	b.rejected += shed
	b.rejectedC.Add(shed)
	if shed == n {
		return 0
	}
	b.setState(StateHalfOpen)
	return n - shed
}

// Success records a successful protected call.
//
//atm:hotpath
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateClosed:
		b.fails = 0
	case StateHalfOpen:
		b.setState(StateClosed)
	}
}

// Failure records a failed protected call, tripping the breaker when
// the consecutive-failure threshold is reached (closed) or immediately
// (half-open).
//
//atm:hotpath
func (b *Breaker) Failure() {
	if b == nil {
		return
	}
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

// trip opens the breaker at the current logical time. Caller holds mu.
func (b *Breaker) trip() {
	b.fails = 0
	// Do not tick the event clock here: the open window is measured in
	// admission attempts, and the trip itself is not one.
	if b.opt.Now != nil {
		b.openedAt = b.opt.Now()
	} else {
		b.openedAt = b.events
	}
	b.setState(StateOpen)
}

// State returns the breaker's position (closed on the nil breaker).
func (b *Breaker) State() State {
	if b == nil {
		return StateClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Rejected returns how many requests the breaker has shed (0 on nil).
func (b *Breaker) Rejected() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}
