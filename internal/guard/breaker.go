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

// BreakerOptions configures a Breaker. Now is required; a zero value
// in any other field selects the default noted on it.
type BreakerOptions struct {
	// Name labels the breaker's metric series. Default "default".
	Name string
	// FailureThreshold is how many consecutive failures trip the
	// breaker open. Default 5.
	FailureThreshold int
	// OpenTicks is how long (in logical ticks) the breaker stays open
	// before admitting probes. Default 8.
	OpenTicks int64
	// Now supplies the logical clock; NewBreaker panics without it.
	// Now must be a pure read with no side effects: a breaker that is
	// not open answers Allow without calling it.
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
// half-open) driven by a logical clock. The nil *Breaker is the
// disabled guard: Allow always admits, Success/Failure no-op, Rejected
// reports 0.
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
	// asks every chip's breaker on each attempt it scores. A dc pass
	// carried over unscored asks each breaker once, through AllowN.
	// Written by NewBreaker and, under mu, by setState.
	admitAll atomic.Bool

	mu       sync.Mutex
	state    State
	fails    int   // consecutive failures while closed
	openedAt int64 // logical time the breaker last opened
	rejected int64

	rejectedC *obs.Counter
	stateG    *obs.Gauge
	toOpenC   *obs.Counter
	toHalfC   *obs.Counter
	toClosedC *obs.Counter
}

// NewBreaker returns a closed breaker. It panics when o.Now is nil.
func NewBreaker(o BreakerOptions) *Breaker {
	if o.Now == nil {
		panic("guard: NewBreaker needs BreakerOptions.Now")
	}
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
// open admits without locking. An open one reads the clock and
// performs the open → half-open transition when the open window has
// elapsed. A shed request must not reach the protected resource.
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
// admit: all n or none, since the clock reads the same for each.
// State, rejection count and obs series end where the n calls would
// leave them. n ≤ 0 changes nothing.
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
// admit. Caller holds mu. It reads the clock once: inside the open
// window all n calls are shed; past it the first call half-opens the
// breaker and the rest admit on the half-open fast path.
//
//atm:hotpath
func (b *Breaker) admitOpen(n int64) int64 {
	if b.state != StateOpen {
		return n
	}
	if b.opt.Now()-b.openedAt < b.opt.OpenTicks {
		b.rejected += n
		b.rejectedC.Add(n)
		return 0
	}
	b.setState(StateHalfOpen)
	return n
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
	b.openedAt = b.opt.Now()
	b.setState(StateOpen)
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
