package fleet

import (
	"encoding/json"
	"fmt"

	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/guard"
	"repro/internal/lifetime"
	"repro/internal/platform"
	"repro/internal/silicon"
	"repro/internal/tuning"
)

// This file runs the job kinds and defines their payload schemas. A
// payload is a fixed-field-order JSON document derived only from the
// job spec, so identical specs always serialize to identical bytes —
// the property the content-addressed cache and the worker-count
// invariance both rest on. The inner stages run with a nil obs
// registry/tracer: per-trial instrumentation from concurrent jobs
// would interleave nondeterministically, so the fleet exposes its own
// campaign-level metrics instead.

// MonteCarloResult is one ext-montecarlo population draw: manufacture
// a server, deploy it, and record the variation the paper measures on
// its two chips.
type MonteCarloResult struct {
	SiliconSeed uint64 `json:"silicon_seed"`
	// IdleLimitLo/Hi span the per-core deterministic idle limits — the
	// manufactured spread fine-tuning exposes.
	IdleLimitLo int `json:"idle_limit_lo"`
	IdleLimitHi int `json:"idle_limit_hi"`
	// SpeedDiffMHz is the deployed fastest-to-slowest idle frequency
	// gap (the paper's >200 MHz differential).
	SpeedDiffMHz float64 `json:"speed_diff_mhz"`
	// MaxIdleFreqMHz is the fastest deployed core's idle frequency;
	// consumers derive the gain over any static baseline from it.
	MaxIdleFreqMHz float64 `json:"max_idle_freq_mhz"`
}

// TuneConfig is one core's row of a tune payload.
type TuneConfig struct {
	Core          string  `json:"core"`
	StressLimit   int     `json:"stress_limit"`
	Reduction     int     `json:"reduction"`
	IdleFreqMHz   float64 `json:"idle_freq_mhz"`
	LoadedFreqMHz float64 `json:"loaded_freq_mhz"`
	Quarantined   bool    `json:"quarantined,omitempty"`
}

// TuneResult is a tune job's payload.
type TuneResult struct {
	SiliconSeed  uint64       `json:"silicon_seed"`
	Configs      []TuneConfig `json:"configs"`
	SpeedDiffMHz float64      `json:"speed_diff_mhz"`
}

// CharactRow is one core's Table I line of a characterize payload.
type CharactRow struct {
	Core        string  `json:"core"`
	Idle        int     `json:"idle"`
	UBench      int     `json:"ubench"`
	Normal      int     `json:"normal"`
	Worst       int     `json:"worst"`
	IdleFreqMHz float64 `json:"idle_freq_mhz"`
	Quarantined bool    `json:"quarantined,omitempty"`
}

// CharacterizeResult is a characterize job's payload.
type CharacterizeResult struct {
	SiliconSeed uint64       `json:"silicon_seed"`
	Rows        []CharactRow `json:"rows"`
}

// LifetimeResult is a lifetime job's payload: the full simulation
// outcome plus the silicon provenance.
type LifetimeResult struct {
	SiliconSeed uint64           `json:"silicon_seed"`
	Lifetime    *lifetime.Result `json:"lifetime"`
}

// DCProvisionResult is a dcprovision job's payload: the node's full
// datacenter-intake record (deployed configs, Eq. 1 predictor fits,
// power envelope).
type DCProvisionResult struct {
	SiliconSeed uint64              `json:"silicon_seed"`
	Provision   *platform.Provision `json:"provision"`
}

// MonteCarlo decodes a montecarlo result payload.
func (r Result) MonteCarlo() (MonteCarloResult, error) {
	var out MonteCarloResult
	if err := r.decode(KindMonteCarlo, &out); err != nil {
		return MonteCarloResult{}, err
	}
	return out, nil
}

// Tune decodes a tune result payload.
func (r Result) Tune() (TuneResult, error) {
	var out TuneResult
	if err := r.decode(KindTune, &out); err != nil {
		return TuneResult{}, err
	}
	return out, nil
}

// Lifetime decodes a lifetime result payload.
func (r Result) Lifetime() (LifetimeResult, error) {
	var out LifetimeResult
	if err := r.decode(KindLifetime, &out); err != nil {
		return LifetimeResult{}, err
	}
	return out, nil
}

// Characterize decodes a characterize result payload.
func (r Result) Characterize() (CharacterizeResult, error) {
	var out CharacterizeResult
	if err := r.decode(KindCharacterize, &out); err != nil {
		return CharacterizeResult{}, err
	}
	return out, nil
}

// DCProvision decodes a dcprovision result payload.
func (r Result) DCProvision() (DCProvisionResult, error) {
	var out DCProvisionResult
	if err := r.decode(KindDCProvision, &out); err != nil {
		return DCProvisionResult{}, err
	}
	return out, nil
}

func (r Result) decode(want Kind, into any) error {
	if r.Kind != want {
		return fmt.Errorf("fleet: job %s is %q, not %q", r.JobID, r.Kind, want)
	}
	if r.Err != "" {
		return fmt.Errorf("fleet: job %s failed: %s", r.JobID, r.Err)
	}
	return json.Unmarshal(r.Payload, into)
}

// runJob executes one job spec from scratch: its own profile, machine,
// fault injector and RNG streams, nothing shared with other workers. A
// positive trialBudget arms a watchdog on the trial axis: the job is
// deadlined (via the trialDeadline sentinel panic, recovered by
// runGuarded) once it has consumed that many retry-wrapped trials.
func runJob(j Job, trialBudget int64) (json.RawMessage, error) {
	if testJobPanic != nil {
		testJobPanic(j)
	}
	srv, err := buildServer(j)
	if err != nil {
		return nil, err
	}
	m, profile := srv.Machine, srv.Profile
	if wd := guard.NewWatchdog(trialBudget); wd != nil {
		// The observer slot is free here: the inner stages only install
		// their own taps when run with a non-nil obs registry, and the
		// fleet always runs them bare (see the package comment above).
		m.SetTrialObserver(func(string, string, int, chip.TrialResult, error) {
			if wd.Tick(1) != nil {
				panic(trialDeadline{budget: trialBudget})
			}
		})
	}
	var payload any
	switch j.Kind {
	case KindMonteCarlo:
		payload, err = runMonteCarlo(j, m, profile)
	case KindTune:
		payload, err = runTune(j, m)
	case KindCharacterize:
		payload, err = runCharacterize(j, m)
	case KindLifetime:
		// Lifetime clones the profile and builds its own machine, so
		// the trial watchdog armed on m above does not meter it; the
		// simulation is bounded by its finite epoch count instead.
		payload, err = runLifetime(j, profile)
	case KindDCProvision:
		payload, err = runDCProvision(j, srv)
	default:
		err = fmt.Errorf("fleet: job %s: unknown kind %q", j.ID, j.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("job %s: %w", j.ID, err)
	}
	return json.Marshal(payload)
}

// buildServer materializes the job's server — silicon, machine, and
// fault arming — through the shared platform recipe, so a fleet job
// and a CLI flag set build byte-identical servers from the same spec.
func buildServer(j Job) (*platform.Server, error) {
	return platform.Build(platform.Spec{
		SiliconSeed:  j.SiliconSeed,
		Chips:        j.Chips,
		FaultProfile: j.FaultProfile,
		FaultSeed:    j.FaultSeed,
	})
}

// runMonteCarlo reproduces one ext-montecarlo draw: deploy the
// manufactured server and record its variation statistics.
func runMonteCarlo(j Job, m *chip.Machine, profile *silicon.ServerProfile) (MonteCarloResult, error) {
	dep, err := tuning.Deploy(m, tuning.Options{Seed: j.Seed, Rollback: j.Rollback})
	if err != nil {
		return MonteCarloResult{}, err
	}
	lo, hi := 1<<30, 0
	for _, c := range profile.AllCores() {
		l := c.DeterministicLimit(0)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	var fMax float64
	for _, cfg := range dep.Configs {
		if f := float64(cfg.IdleFreq); f > fMax {
			fMax = f
		}
	}
	return MonteCarloResult{
		SiliconSeed:    j.SiliconSeed,
		IdleLimitLo:    lo,
		IdleLimitHi:    hi,
		SpeedDiffMHz:   dep.SpeedDifferentialMHz(),
		MaxIdleFreqMHz: fMax,
	}, nil
}

// runTune deploys the server and records the per-core configuration.
func runTune(j Job, m *chip.Machine) (TuneResult, error) {
	dep, err := tuning.Deploy(m, tuning.Options{Seed: j.Seed, Rollback: j.Rollback})
	if err != nil {
		return TuneResult{}, err
	}
	out := TuneResult{SiliconSeed: j.SiliconSeed, SpeedDiffMHz: dep.SpeedDifferentialMHz()}
	for _, cfg := range dep.Configs {
		out.Configs = append(out.Configs, TuneConfig{
			Core:          cfg.Core,
			StressLimit:   cfg.StressLimit,
			Reduction:     cfg.Reduction,
			IdleFreqMHz:   float64(cfg.IdleFreq),
			LoadedFreqMHz: float64(cfg.LoadedFreq),
			Quarantined:   cfg.Quarantined,
		})
	}
	return out, nil
}

// runLifetime simulates the job's horizon of field operation on the
// (possibly manufactured) server.
func runLifetime(j Job, profile *silicon.ServerProfile) (LifetimeResult, error) {
	res, err := lifetime.Run(profile, lifetime.Options{
		Years:       j.Years,
		Seed:        j.Seed,
		SentinelOff: j.SentinelOff,
	})
	if err != nil {
		return LifetimeResult{}, err
	}
	return LifetimeResult{SiliconSeed: j.SiliconSeed, Lifetime: res}, nil
}

// runDCProvision runs the datacenter intake pass: deploy, calibrate
// the Eq. 1 predictors, measure the power envelope.
func runDCProvision(j Job, srv *platform.Server) (DCProvisionResult, error) {
	prov, err := platform.ProvisionServer(srv, platform.ProvisionOptions{
		Seed:     j.Seed,
		Rollback: j.Rollback,
	})
	if err != nil {
		return DCProvisionResult{}, err
	}
	return DCProvisionResult{SiliconSeed: j.SiliconSeed, Provision: prov}, nil
}

// runCharacterize runs the methodology and records the Table I rows.
func runCharacterize(j Job, m *chip.Machine) (CharacterizeResult, error) {
	rep, err := charact.Characterize(m, charact.Options{Trials: j.Trials, Seed: j.Seed})
	if err != nil {
		return CharacterizeResult{}, err
	}
	out := CharacterizeResult{SiliconSeed: j.SiliconSeed}
	for _, row := range rep.TableI() {
		var idleFreq float64
		if c, ok := rep.Core(row.Core); ok {
			idleFreq = float64(c.IdleFreq)
		}
		out.Rows = append(out.Rows, CharactRow{
			Core:        row.Core,
			Idle:        row.Idle,
			UBench:      row.UBench,
			Normal:      row.Normal,
			Worst:       row.Worst,
			IdleFreqMHz: idleFreq,
			Quarantined: row.Quarantined,
		})
	}
	return out, nil
}
