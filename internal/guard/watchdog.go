package guard

import (
	"errors"
	"sync"

	"repro/internal/obs"
)

// ErrWatchdogExpired is returned by Watchdog.Tick once the budget is
// spent: the guarded work is stuck (or unbounded) on the simulated
// axis and must be deadlined.
var ErrWatchdogExpired = errors.New("guard: watchdog budget exhausted")

// WatchdogOptions configures a Watchdog.
type WatchdogOptions struct {
	// Name labels the watchdog's metric series. Default "default".
	Name string
	// Budget is the number of logical ticks the guarded work may
	// consume. NewWatchdog with Budget <= 0 returns nil — the disabled
	// watchdog that never expires.
	Budget int64
	// Obs, when non-nil, exports guard_watchdog_expired_total under
	// the watchdog name.
	Obs *obs.Registry
}

// Watchdog deadlines stuck work on the simulated/logical time axis: a
// cooperative countdown the guarded loop ticks at each unit of
// progress (a trial, a command, an iteration). Unlike a wall-clock
// watchdog it cannot preempt — the expiry surfaces at the next tick —
// but it is exactly reproducible: the same workload expires at the
// same tick on every run and every worker count. The nil *Watchdog is
// the disabled guard: Tick always returns nil.
//
//atm:nilsafe
type Watchdog struct {
	mu        sync.Mutex
	remaining int64
	expired   bool

	expiredC *obs.Counter
}

// NewWatchdog arms a watchdog with the options' budget, or returns nil
// (never expires) when the budget is not positive.
func NewWatchdog(o WatchdogOptions) *Watchdog {
	if o.Budget <= 0 {
		return nil
	}
	if o.Name == "" {
		o.Name = "default"
	}
	w := &Watchdog{remaining: o.Budget}
	if o.Obs != nil {
		w.expiredC = o.Obs.Counter("guard_watchdog_expired_total", "name", o.Name)
	}
	return w
}

// Tick consumes n ticks of budget and reports ErrWatchdogExpired once
// the budget is spent (and on every tick thereafter).
//
//atm:hotpath
func (w *Watchdog) Tick(n int64) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.expired {
		return ErrWatchdogExpired
	}
	w.remaining -= n
	if w.remaining < 0 {
		w.expired = true
		w.expiredC.Inc()
		return ErrWatchdogExpired
	}
	return nil
}
