package fault

import (
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/rng"
)

// hits is the injector's per-site fire counters. The zero value (all
// nil handles) is the disabled plane; Observe resolves the handles.
// The trial hook reads the fields at fire time through the injector
// pointer, so Observe works whether it is called before or after
// arming.
type hits struct {
	trialSpurious *obs.Counter
	trialBroken   *obs.Counter
}

// Injector arms a Profile on a machine. All randomness descends from
// one seeded root via labelled splits, so the broken-core choice and
// the spurious-failure stream are independent and deterministic: the
// same (profile, seed) replays the same broken cores and failures.
//
// An injector's stream is not concurrency-safe; the trial hook is
// expected to be driven from one goroutine at a time, which holds
// because the simulation is single-threaded.
type Injector struct {
	profile Profile
	seed    uint64
	root    *rng.Source

	broken []string // labels of persistently failing cores, sorted
	hits   hits
}

// Observe resolves per-site fire counters against r, so every injected
// fault — spurious and broken-core trial faults — is counted as it
// lands. Call it before driving trials through the armed hook (order
// relative to ArmMachine does not matter). A nil registry disables
// counting again.
func (in *Injector) Observe(r *obs.Registry) {
	if r == nil {
		in.hits = hits{}
		return
	}
	in.hits = hits{
		trialSpurious: r.Counter("fault_trial_spurious_total"),
		trialBroken:   r.Counter("fault_trial_broken_total"),
	}
}

// New builds an injector from a validated profile and a seed.
func New(p Profile, seed uint64) *Injector {
	return &Injector{profile: p, seed: seed, root: rng.New(seed)}
}

// Profile returns the armed profile.
func (in *Injector) Profile() Profile { return in.profile }

// Seed returns the seed every armed fault stream descends from.
func (in *Injector) Seed() uint64 { return in.seed }

// ArmMachine installs the trial hook on m. Broken cores are chosen
// here, deterministically from the seed and the machine's sorted core
// labels.
func (in *Injector) ArmMachine(m *chip.Machine) {
	labels := make([]string, 0, len(m.AllCores()))
	for _, core := range m.AllCores() {
		labels = append(labels, core.Profile.Label)
	}
	sort.Strings(labels)

	// Choose the persistently broken cores.
	in.broken = in.broken[:0]
	if n := in.profile.BrokenCores; n > 0 {
		perm := in.root.Split("broken").Perm(len(labels))
		if n > len(labels) {
			n = len(labels)
		}
		for _, idx := range perm[:n] {
			in.broken = append(in.broken, labels[idx])
		}
		sort.Strings(in.broken)
	}
	brokenSet := map[string]bool{}
	for _, l := range in.broken {
		brokenSet[l] = true
	}

	if in.profile.TrialErrProb == 0 && len(in.broken) == 0 {
		m.SetTrialFault(nil)
		return
	}
	tsrc := in.root.Split("trial")
	terr := in.profile.TrialErrProb
	m.SetTrialFault(func(label, workload string, res chip.TrialResult) (chip.TrialResult, error) {
		if brokenSet[label] {
			in.hits.trialBroken.Inc()
			return res, fmt.Errorf("fault: core %s harness broken (%s): %w",
				label, workload, chip.ErrTransient)
		}
		if terr > 0 && tsrc.Float64() < terr {
			in.hits.trialSpurious.Inc()
			return res, fmt.Errorf("fault: spurious harness failure on %s (%s): %w",
				label, workload, chip.ErrTransient)
		}
		return res, nil
	})
}
