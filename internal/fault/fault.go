// Package fault is the deterministic fault-injection layer: a seeded,
// replayable source of the trial-harness failures a fine-tuned ATM
// system must survive on a real test floor — spurious trial failures
// and persistently broken cores.
//
// The paper operates silicon at the edge of failure; its procedures
// only earn trust if they keep going when the harness misbehaves: a
// flaky trial is retried, and a core whose trials never complete ends
// in quarantine, not an aborted run. Every fault is drawn from the
// seeded splittable generator in internal/rng — never the wall clock —
// so any failure scenario replays bit-for-bit from (profile, seed), and
// two runs with the same -fault-seed produce byte-identical reports.
//
// The injector arms one hook the platform exposes (and knows nothing
// else about its internals): chip.Machine.SetTrialFault, which fails
// trials with chip.ErrTransient. There are no CPM or service-processor
// faults: no command that takes a fault profile consumes that
// telemetry, and such faults test something only together with a
// consumer (ControlPULP validates its power controller against the
// sensor faults that controller reads through).
//
// The package also holds the profile spec grammar (spec.go) that the
// datacenter plane's operational fault profile shares.
package fault

import "fmt"

// Profile describes how hostile the trial harness is. The zero value
// injects nothing.
type Profile struct {
	// TrialErrProb is the per-trial probability that the harness fails
	// transiently (retryable chip.ErrTransient).
	TrialErrProb float64 `spec:"trial-err"`
	// BrokenCores is the number of cores (chosen deterministically from
	// the seed) whose trials always fail — the persistent failures that
	// must end in quarantine, not an aborted run.
	BrokenCores int `spec:"broken"`
}

// Empty reports whether the profile injects nothing.
func (p Profile) Empty() bool { return p == Profile{} }

// Validate rejects a probability outside [0,1], NaN included, and a
// negative count.
func (p Profile) Validate() error {
	if !(p.TrialErrProb >= 0 && p.TrialErrProb <= 1) {
		return fmt.Errorf("fault: trial-err probability %v outside [0,1]", p.TrialErrProb)
	}
	if p.BrokenCores < 0 {
		return fmt.Errorf("fault: negative count in profile %+v", p)
	}
	return nil
}

// presets are the named scenarios -fault-profile accepts directly.
var presets = map[string]Profile{
	"none": {},
	// test-floor: the baseline hostile environment — occasional
	// transient harness failures, nothing persistent.
	"test-floor": {
		TrialErrProb: 0.02,
	},
	// broken-core: one core's trials never complete — the quarantine
	// path — plus a background of transient harness noise.
	"broken-core": {
		BrokenCores:  1,
		TrialErrProb: 0.01,
	},
}

// PresetNames lists the named profiles in sorted order.
func PresetNames() []string { return SpecPresetNames(presets) }

// ParseProfile builds a Profile from a spec string: a preset name
// ("test-floor"), a comma-separated key=value list
// ("trial-err=0.1,broken=1"), or a preset with overrides
// ("test-floor,broken=1"). The empty string and "none" are the empty
// profile.
func ParseProfile(spec string) (Profile, error) {
	return ParseSpec(spec, presets, func(p Profile) Profile { return p }, "fault", "")
}

// String renders the profile as a canonical key=value spec ParseProfile
// accepts; the empty profile renders as "none".
func (p Profile) String() string { return FormatSpec(p) }
