// Package guard is the process-level resilience toolkit of the
// reproduction: circuit breakers, panic isolation, and crash-point
// injection.
// Where internal/fault makes the *devices* misbehave deterministically,
// this package keeps the *software* that drives them — the fleet
// engine's worker pool, the dc placer's per-node quarantine — inside a
// bounded failure envelope: a failing node or a panicking worker
// degrades into an explicit, in-band error instead of a hang, a leak,
// or a dead process.
//
// Design rules, shared with internal/obs:
//
//   - Disabled is the default and costs ~nothing. A nil *Breaker
//     admits everything, counts nothing, and allocates nothing —
//     TestDisabledGuardZeroAlloc pins the disabled hot path at 0
//     allocs/op — so consumers wire breakers unconditionally and
//     enable them by construction.
//   - Time is logical, never the wall clock. Breakers read the
//     caller's monotone clock (BreakerOptions.Now, required), so a
//     guarded run replays bit-for-bit and chaos tests can assert exact
//     trip/recovery points. The package is in atmlint's detflow scope.
//   - Refusal is explicit. A guard never blocks and never silently
//     drops: callers get a boolean (or an error) and decide what a
//     refusal means themselves.
//
// Observability rides the obs plane: a breaker optionally resolves
// counters/gauges against a Registry at construction, and also keeps a
// plain internal tally (Rejected) so a caller's result can report
// rejections with collection disabled.
package guard

import (
	"fmt"
	"os"
	"sync"
)

// SafeRun executes fn, converting a panic into a *PanicError return.
// The pool around a panicking worker survives: the goroutine unwinds
// normally and the failure is an ordinary, comparable error value.
func SafeRun(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r}
		}
	}()
	return fn()
}

// PanicError is a recovered panic surfaced as an error. Its message
// carries only the panic value — never goroutine IDs or stack
// addresses — so a deterministic panic produces a byte-identical error
// string at every worker count.
type PanicError struct {
	// Value is the value the panic was raised with.
	Value any
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// CrashPointEnv names the environment variable that arms a crash
// point. When set, the process kills itself (exit status 137, the
// kill -9 convention) the first time the named point is reached —
// simulating a power-loss-style kill at exactly that instruction, so
// CI can prove crash-safety invariants (fsync'd cache entries,
// campaigns that a plain rerun finishes) at every dangerous window.
const CrashPointEnv = "ATM_CRASH_POINT"

// armedCrashPoint reads the armed point once. Reading the environment
// is banned in simulation packages; this single read is the one
// sanctioned exception — it selects *where to die*, never a simulation
// input, so it cannot perturb any result that survives the crash.
var armedCrashPoint = sync.OnceValue(func() string {
	//lint:ignore detflow crash-point arming reads the variable once, before any simulation step, and selects where the process kills itself for kill-matrix CI; it never feeds a simulation result
	return os.Getenv(CrashPointEnv)
})

// CrashPoint kills the process when name is the armed crash point.
// With no point armed (the default) it is a no-op costing one atomic
// load and a string compare.
//
//atm:hotpath
func CrashPoint(name string) {
	if p := armedCrashPoint(); p != "" && p == name {
		//lint:ignore hotpath the armed branch dies one line later; allocation mid-crash is irrelevant
		fmt.Fprintf(os.Stderr, "guard: crash point %s armed — dying\n", name)
		os.Exit(137)
	}
}
