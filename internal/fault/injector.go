package fault

import (
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/cpm"
	"repro/internal/fsp"
	"repro/internal/obs"
	"repro/internal/rng"
)

// hits is the injector's per-site fire counters. The zero value (all
// nil handles) is the disabled plane; Observe resolves the handles.
// Hooks read the fields at fire time through the injector pointer, so
// Observe works whether it is called before or after arming.
type hits struct {
	cpmUpsets     *obs.Counter
	cpmStuck      *obs.Counter
	telemetryErrs *obs.Counter
	linesDropped  *obs.Counter
	linesGarbled  *obs.Counter
	trialSpurious *obs.Counter
	trialBroken   *obs.Counter
}

// Injector arms a Profile on a platform. All randomness descends from
// one seeded root via labelled splits, so every armed layer draws an
// independent deterministic stream: the same (profile, seed) replays
// the same upsets, drops and broken cores regardless of which other
// layers are armed.
//
// An injector's streams are not concurrency-safe; each armed hook is
// expected to be driven from one goroutine at a time (the simulation is
// single-threaded and the FSP server serializes commands, so this holds
// everywhere the hooks fire). Each wrapped transport gets its own
// stream, so concurrent connections stay independent.
type Injector struct {
	profile Profile
	seed    uint64
	root    *rng.Source

	broken  []string // labels of persistently failing cores, sorted
	stuck   map[string]int
	conns   int
	machine *chip.Machine
	ctl     *fsp.Controller
	hits    hits
}

// Observe resolves per-site fire counters against r, so every injected
// fault — CPM upsets and stuck reads, telemetry errors, dropped and
// garbled lines, spurious and broken-core trial faults — is counted as
// it lands. Call it before driving traffic through armed hooks (order
// relative to the Arm* calls does not matter). A nil registry disables
// counting again.
func (in *Injector) Observe(r *obs.Registry) {
	if r == nil {
		in.hits = hits{}
		return
	}
	in.hits = hits{
		cpmUpsets:     r.Counter("fault_cpm_upsets_total"),
		cpmStuck:      r.Counter("fault_cpm_stuck_reads_total"),
		telemetryErrs: r.Counter("fault_telemetry_errors_total"),
		linesDropped:  r.Counter("fault_lines_dropped_total"),
		linesGarbled:  r.Counter("fault_lines_garbled_total"),
		trialSpurious: r.Counter("fault_trial_spurious_total"),
		trialBroken:   r.Counter("fault_trial_broken_total"),
	}
}

// New builds an injector from a validated profile and a seed.
func New(p Profile, seed uint64) *Injector {
	p = p.withDefaults()
	return &Injector{
		profile: p,
		seed:    seed,
		root:    rng.New(seed),
		stuck:   map[string]int{},
	}
}

// Profile returns the armed profile.
func (in *Injector) Profile() Profile { return in.profile }

// Seed returns the seed every armed fault stream descends from.
func (in *Injector) Seed() uint64 { return in.seed }

// ArmMachine installs the CPM and trial hooks on every core of m.
// Broken cores and stuck sites are chosen here, deterministically from
// the seed and the machine's sorted core labels.
func (in *Injector) ArmMachine(m *chip.Machine) {
	in.machine = m
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

	// Choose the cores with a stuck CPM site; the site index itself is
	// drawn per core, in AllCores order, when the hook is armed.
	in.stuck = map[string]int{}
	stuckCore := map[string]bool{}
	ssrc := in.root.Split("stuck")
	if n := in.profile.CPMStuckSites; n > 0 {
		perm := ssrc.Perm(len(labels))
		if n > len(labels) {
			n = len(labels)
		}
		for _, idx := range perm[:n] {
			stuckCore[labels[idx]] = true
		}
	}

	// Arm the per-core CPM hooks.
	for _, core := range m.AllCores() {
		label := core.Profile.Label
		upset := in.profile.CPMUpsetProb
		mag := in.profile.CPMUpsetMag
		hasStuck := stuckCore[label]
		stuckSite := 0
		if hasStuck {
			stuckSite = ssrc.Intn(len(core.Profile.SiteSkewPs))
			in.stuck[label] = stuckSite
		}
		if upset == 0 && !hasStuck {
			core.Monitor.SetReadFault(nil)
			continue
		}
		src := in.root.Split("cpm/" + label)
		core.Monitor.SetReadFault(func(r cpm.Reading) cpm.Reading {
			if hasStuck && r.Units > stuckUnits {
				// The stuck site reports almost no margin every cycle;
				// worst-of-five makes it the reading.
				r.Units = stuckUnits
				r.WorstSite = stuckSite
				in.hits.cpmStuck.Inc()
			}
			if upset > 0 && src.Float64() < upset {
				delta := src.Intn(2*mag+1) - mag
				r.Units += delta
				in.hits.cpmUpsets.Inc()
			}
			return r
		})
	}

	// Arm the trial hook.
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

// stuckUnits is the margin a stuck-low CPM site reports: one inverter
// of slack, every cycle, regardless of the real path delay.
const stuckUnits = 1

// ArmController installs the telemetry read-fault hook on a service
// processor. Injected errors carry the in-band "transient" convention,
// so operator clients (fsp.Client) retry them.
//
//lint:ignore deadcode FSP fault path, kept until the sentinel's link takes a fault profile or the path is deleted
func (in *Injector) ArmController(ctl *fsp.Controller) {
	in.ctl = ctl
	if in.profile.TelemetryErrProb == 0 {
		ctl.SetReadFault(nil)
		return
	}
	src := in.root.Split("fsp")
	p := in.profile.TelemetryErrProb
	ctl.SetReadFault(func(a fsp.Addr) error {
		if src.Float64() < p {
			in.hits.telemetryErrs.Inc()
			return fmt.Errorf("transient telemetry upset at %#x: %w", uint32(a), chip.ErrTransient)
		}
		return nil
	})
}

// Disarm removes every hook the injector installed, leaving the
// platform fault-free.
//
//lint:ignore deadcode FSP fault path, kept until the sentinel's link takes a fault profile or the path is deleted
func (in *Injector) Disarm() {
	if in.machine != nil {
		in.machine.SetTrialFault(nil)
		for _, core := range in.machine.AllCores() {
			core.Monitor.SetReadFault(nil)
		}
		in.machine = nil
	}
	if in.ctl != nil {
		in.ctl.SetReadFault(nil)
		in.ctl = nil
	}
}
