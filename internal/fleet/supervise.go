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
// degrades into a per-job failure instead of killing the pool, and a
// job that panics is quarantined as a poison job. All failure messages
// are pure functions of the job spec and its panic value, so merged
// results stay byte-identical across worker counts even for crashing
// campaigns.

// testJobPanic, when non-nil, is invoked at the top of every job
// run. Chaos tests install it to make chosen jobs panic without
// touching the job specs (a panic hook in the spec would change job
// hashes and pollute the content-addressed cache).
var testJobPanic func(Job)

// runGuarded is the supervised form of runJob: a panic quarantines the
// job as poison and is counted on panics. Jobs are hermetic and
// deterministic, so a job that panicked would panic again on a retry:
// the first panic is final. The pool around a misbehaving job never
// wedges and never dies.
func runGuarded(j Job, panics *obs.Counter) (json.RawMessage, error) {
	var payload json.RawMessage
	err := guard.SafeRun(func() error {
		var err error
		payload, err = runJob(j)
		return err
	})
	var pe *guard.PanicError
	if !errors.As(err, &pe) {
		return payload, err
	}
	panics.Inc()
	return nil, fmt.Errorf("job %s: poison job quarantined: %w", j.ID, pe)
}
