package guard

import (
	"errors"
	"sync"
)

// ErrWatchdogExpired is returned by Watchdog.Tick once the budget is
// spent: the guarded work is stuck (or unbounded) on the simulated
// axis and must be deadlined.
var ErrWatchdogExpired = errors.New("guard: watchdog budget exhausted")

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
}

// NewWatchdog arms a watchdog that lets the guarded work consume
// budget logical ticks, or returns nil (never expires) when the budget
// is not positive.
func NewWatchdog(budget int64) *Watchdog {
	if budget <= 0 {
		return nil
	}
	return &Watchdog{remaining: budget}
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
		return ErrWatchdogExpired
	}
	return nil
}
