// Package fault is the deterministic fault-injection layer: a seeded,
// replayable source of the disturbances a fine-tuned ATM system must
// survive on a real test floor — CPM read upsets and stuck-at sites,
// transient service-processor telemetry errors, lossy operator
// transports, and a flaky trial harness.
//
// The paper operates silicon at the edge of failure; its procedures
// only earn trust if they behave when the measurement and control plane
// itself misbehaves. Production power-management firmware is validated
// hardware-in-the-loop against exactly these injected disturbances
// (ControlPULP), and post-silicon tuning is framed as a test procedure
// robust to measurement uncertainty (EffiTest). This package brings
// that discipline to the reproduction: every fault is drawn from the
// seeded splittable generator in internal/rng — never the wall clock —
// so any failure scenario replays bit-for-bit from (profile, seed), and
// two runs with the same -fault-seed produce byte-identical reports.
//
// The injector arms hooks the platform packages expose (and knows
// nothing else about their internals):
//
//   - cpm.Monitor.SetReadFault — measurement upsets, stuck-at sites;
//   - chip.Machine.SetTrialFault — spurious harness failures
//     (chip.ErrTransient) and persistently broken cores;
//   - fsp.Controller.SetReadFault — transient telemetry-register reads;
//   - WrapConn / WrapReadWriter — dropped and garbled response lines on
//     the operator transport.
package fault

import "fmt"

// Profile describes how hostile the platform is: per-layer fault rates
// and counts. The zero value injects nothing.
type Profile struct {
	// CPMUpsetProb is the per-measurement probability that a reading's
	// inverter count is jittered by up to ±CPMUpsetMag units.
	CPMUpsetProb float64 `spec:"cpm-upset"`
	// CPMUpsetMag is the maximum upset magnitude in inverter units
	// (default 3 when upsets are enabled).
	CPMUpsetMag int `spec:"cpm-upset-mag"`
	// CPMStuckSites is the number of cores given one CPM site stuck
	// reading low margin. A stuck-low site drags the worst-of-five
	// reading down, slowing that core — a degradation, not a crash.
	CPMStuckSites int `spec:"stuck"`

	// TelemetryErrProb is the per-read probability that a read-only FSP
	// telemetry register access fails with a transient error.
	TelemetryErrProb float64 `spec:"telemetry"`

	// DropProb is the per-line probability that a faulty transport
	// drops a response line entirely.
	DropProb float64 `spec:"drop"`
	// GarbleProb is the per-line probability that a faulty transport
	// corrupts a response line's framing.
	GarbleProb float64 `spec:"garble"`

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

// withDefaults fills dependent defaults.
func (p Profile) withDefaults() Profile {
	if p.CPMUpsetProb > 0 && p.CPMUpsetMag == 0 {
		p.CPMUpsetMag = 3
	}
	return p
}

// Validate rejects probabilities outside [0,1], NaN included, and
// negative counts.
func (p Profile) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{
		{"cpm-upset", p.CPMUpsetProb},
		{"telemetry", p.TelemetryErrProb},
		{"drop", p.DropProb},
		{"garble", p.GarbleProb},
		{"trial-err", p.TrialErrProb},
	} {
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("fault: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.DropProb+p.GarbleProb > 1 {
		return fmt.Errorf("fault: drop+garble probability %v exceeds 1", p.DropProb+p.GarbleProb)
	}
	if p.CPMUpsetMag < 0 || p.CPMStuckSites < 0 || p.BrokenCores < 0 {
		return fmt.Errorf("fault: negative count in profile %+v", p)
	}
	return nil
}

// presets are the named scenarios -fault-profile accepts directly.
var presets = map[string]Profile{
	"none": {},
	// test-floor: the baseline hostile environment — a little of
	// everything, nothing persistent.
	"test-floor": {
		CPMUpsetProb:     0.01,
		TelemetryErrProb: 0.05,
		DropProb:         0.05,
		GarbleProb:       0.05,
		TrialErrProb:     0.02,
	},
	// flaky-fsp: the service-processor link is the problem.
	"flaky-fsp": {
		TelemetryErrProb: 0.20,
		DropProb:         0.15,
		GarbleProb:       0.10,
	},
	// noisy-cpm: sensors misbehave; one core has a stuck site.
	"noisy-cpm": {
		CPMUpsetProb:  0.05,
		CPMStuckSites: 1,
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
// ("test-floor,drop=0.3"). The empty string and "none" are the empty
// profile.
func ParseProfile(spec string) (Profile, error) {
	return ParseSpec(spec, presets, Profile.withDefaults, "fault", "")
}

// String renders the profile as a canonical key=value spec ParseProfile
// accepts; the empty profile renders as "none".
func (p Profile) String() string { return FormatSpec(p) }
