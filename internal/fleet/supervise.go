package fleet

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/guard"
	"repro/internal/obs"
)

// This file is the fleet's supervision layer: every job runs inside a
// panic-isolation wrapper (guard.SafeRun) so a panicking worker
// degrades into a per-job failure instead of killing the pool, a job
// that panics is quarantined as a poison job, and an optional watchdog
// deadlines jobs on the trial axis — the repository's simulated-time
// equivalent of a stuck command. All failure messages are pure
// functions of the job spec and its panic value, so merged results stay
// byte-identical across worker counts even for crashing campaigns.

// testJobPanic, when non-nil, is invoked at the top of every job
// run. Chaos tests install it to make chosen jobs panic without
// touching the job specs (a panic hook in the spec would change job
// hashes and pollute the content-addressed cache).
var testJobPanic func(Job)

// trialDeadline is the sentinel value the watchdog's trial observer
// panics with when a job exceeds its trial budget. The panic is the
// only way out of a deep trial loop from an observer; runGuarded
// recognizes the sentinel and converts it into a clean job failure.
type trialDeadline struct{ budget int64 }

// jobGuards bundles the supervision counters the worker pool threads
// through to runGuarded.
type jobGuards struct {
	panics   *obs.Counter
	poisoned *obs.Counter
	deadline *obs.Counter
}

// runGuarded is the supervised form of runJob: a panic quarantines the
// job as poison, and a trial-budget expiry surfaces as a deterministic
// failure. Jobs are hermetic and deterministic, so a job that panicked
// would panic again on a retry: the first panic is final. The pool
// around a misbehaving job never wedges and never dies.
func runGuarded(j Job, trialBudget int64, g jobGuards) (json.RawMessage, error) {
	var payload json.RawMessage
	err := guard.SafeRun(func() error {
		var err error
		payload, err = runJob(j, trialBudget)
		return err
	})
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		return payload, err
	}
	if dl, ok := pe.Value.(trialDeadline); ok {
		g.deadline.Inc()
		return nil, fmt.Errorf("job %s: trial budget %d exhausted", j.ID, dl.budget)
	}
	g.panics.Inc()
	g.poisoned.Inc()
	return nil, fmt.Errorf("job %s: poison job quarantined: %w", j.ID, pe)
}
