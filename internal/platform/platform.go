// Package platform is the one place a simulated POWER server is
// assembled: silicon profile (paper-calibrated reference or Monte-Carlo
// generated), chip.Machine, and optional deterministic fault injection.
// charact, tuning, fleet, dc and the CLIs used to re-assemble this
// recipe independently; they now all build through Spec/Build, so a
// job spec, a CLI flag set and a datacenter node materialize the same
// server byte for byte.
//
// The package is in atmlint's detflow scope: a Server is a pure
// function of its Spec, with no wall clock or ambient randomness
// anywhere in the recipe.
package platform

import (
	"errors"
	"fmt"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/manage"
	"repro/internal/silicon"
	"repro/internal/tuning"
)

// Spec names a server completely: identical specs build identical
// servers. The zero value is the paper-calibrated fault-free reference
// machine. Field order and omitempty tags are part of the fleet job
// hash contract — change them only with a specVersion bump there.
type Spec struct {
	// SiliconSeed manufactures the server from the Monte-Carlo process
	// model; 0 builds the paper-calibrated reference profile.
	SiliconSeed uint64 `json:"silicon_seed,omitempty"`
	// Chips overrides the generated server's processor count (0 = the
	// generator default of 2). Requires a non-zero SiliconSeed: the
	// reference profile is pinned to the paper's two chips.
	Chips int `json:"chips,omitempty"`
	// CoresPerChip overrides the generated per-chip core count
	// (0 = the generator default of 8). Requires a non-zero SiliconSeed.
	CoresPerChip int `json:"cores_per_chip,omitempty"`
	// FaultProfile, when non-empty, arms deterministic fault injection
	// (a fault.ParseProfile spec).
	FaultProfile string `json:"fault_profile,omitempty"`
	// FaultSeed seeds the fault streams (0 = 1, the injector default).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
}

// Server is one materialized machine with its provenance.
type Server struct {
	Spec    Spec
	Profile *silicon.ServerProfile
	Machine *chip.Machine
	// Injector is non-nil exactly when the spec armed a non-empty
	// fault profile; fault-free servers take the same code path (and
	// RNG streams) they did before fault injection existed.
	Injector *fault.Injector
}

// Build materializes the spec: silicon, machine, faults.
func Build(spec Spec) (*Server, error) {
	var profile *silicon.ServerProfile
	switch {
	case spec.SiliconSeed != 0:
		var err error
		profile, err = silicon.Generate(spec.SiliconSeed, silicon.GenerateOptions{
			Chips:        spec.Chips,
			CoresPerChip: spec.CoresPerChip,
		})
		if err != nil {
			return nil, err
		}
	case spec.Chips != 0 || spec.CoresPerChip != 0:
		return nil, errors.New("platform: chip/core count overrides require a non-zero silicon seed")
	default:
		profile = silicon.Reference()
	}
	m, err := chip.New(profile, chip.Options{})
	if err != nil {
		return nil, err
	}
	inj, err := Arm(m, spec.FaultProfile, spec.FaultSeed)
	if err != nil {
		return nil, err
	}
	return &Server{Spec: spec, Profile: profile, Machine: m, Injector: inj}, nil
}

// Arm installs a fault profile on a machine: nil injector for an empty
// spec (fault-free runs keep their exact pre-fault code path), seed 0
// normalized to the injector default of 1.
func Arm(m *chip.Machine, profileSpec string, seed uint64) (*fault.Injector, error) {
	if profileSpec == "" {
		return nil, nil
	}
	p, err := fault.ParseProfile(profileSpec)
	if err != nil {
		return nil, err
	}
	if p.Empty() {
		return nil, nil
	}
	if seed == 0 {
		seed = 1
	}
	inj := fault.New(p, seed)
	inj.ArmMachine(m)
	return inj, nil
}

// ProvisionOptions tunes the datacenter intake pass.
type ProvisionOptions struct {
	// Seed drives the stress-test trials (0 = the tuning default).
	Seed uint64
	// Rollback is the tuning safety margin.
	Rollback int
}

// The dc-scale quick pass: the stress-battery repeat count and the
// clean-run bar per configuration. The full manufacturing flow uses
// tuning's defaults of 3 and 4.
const (
	provisionPasses        = 1
	provisionRunsPerConfig = 2
)

// CoreProvision is one core's datacenter-intake record: its deployed
// fine-tuned configuration plus the fitted Eq. 1 frequency predictor
// the global scheduler indexes by chip power.
type CoreProvision struct {
	Core          string  `json:"core"`
	StressLimit   int     `json:"stress_limit"`
	Reduction     int     `json:"reduction"`
	IdleFreqMHz   float64 `json:"idle_freq_mhz"`
	LoadedFreqMHz float64 `json:"loaded_freq_mhz"`
	Quarantined   bool    `json:"quarantined,omitempty"`
	// FreqSlope/FreqIntercept are the core's Eq. 1 fit
	// (f ≈ FreqSlope·P + FreqIntercept, slope negative): zero for
	// quarantined cores, which the scheduler never places work on.
	FreqSlope     float64 `json:"freq_slope"`
	FreqIntercept float64 `json:"freq_intercept"`
}

// ChipProvision is one chip's intake record: the per-core
// configurations plus the measured power envelope the hierarchical
// budget loop plans against.
type ChipProvision struct {
	Chip string `json:"chip"`
	// IdleW/LoadedW bound the chip's power draw: every core idle vs
	// every core running daxpy (the highest-power kernel) at the
	// deployed configuration.
	IdleW   float64         `json:"idle_w"`
	LoadedW float64         `json:"loaded_w"`
	Cores   []CoreProvision `json:"cores"`
}

// Provision is a server's full datacenter-intake record.
type Provision struct {
	SiliconSeed  uint64          `json:"silicon_seed"`
	SpeedDiffMHz float64         `json:"speed_diff_mhz"`
	Chips        []ChipProvision `json:"chips"`
}

// CoreView is one schedulable core as a consumer sees it: label,
// intake quarantine flag, and the Eq. 1 frequency fit.
type CoreView struct {
	Label       string
	Quarantined bool
	Slope       float64
	Intercept   float64
}

// NodeView is a single-chip node's validated scheduling view: the
// power envelope (idle floor, per-core idle→loaded span) and per-core
// fits. Live is false when every core is quarantined.
type NodeView struct {
	IdleW float64
	SpanW float64
	Live  bool
	Cores []CoreView
}

// View validates the provision as a single-chip datacenter node and
// projects it into the scheduler's shape. It is the re-admission
// rebuild hook: the dc recovery ladder re-materializes a quarantined
// node's placement state from this immutable intake record once its
// telemetry link returns, instead of re-running the (expensive,
// already cached) provision flow.
func (p *Provision) View() (NodeView, error) {
	if len(p.Chips) != 1 {
		return NodeView{}, fmt.Errorf("platform: provision has %d chips, want 1", len(p.Chips))
	}
	cp := p.Chips[0]
	if cp.LoadedW < cp.IdleW {
		return NodeView{}, fmt.Errorf("platform: chip %s envelope inverted (idle %.2f W > loaded %.2f W)", cp.Chip, cp.IdleW, cp.LoadedW)
	}
	v := NodeView{IdleW: cp.IdleW}
	if n := len(cp.Cores); n > 0 {
		v.SpanW = (cp.LoadedW - cp.IdleW) / float64(n)
	}
	for _, core := range cp.Cores {
		v.Cores = append(v.Cores, CoreView{
			Label:       core.Core,
			Quarantined: core.Quarantined,
			Slope:       core.FreqSlope,
			Intercept:   core.FreqIntercept,
		})
		if !core.Quarantined {
			v.Live = true
		}
	}
	return v, nil
}

// ProvisionServer runs the datacenter intake pass on a built server:
// stress-test deployment (tuning.Deploy), then per chip the idle/loaded
// power envelope, read from the two corner states Deploy solved, and
// the Eq. 1 frequency predictors of its live cores, fitted in one
// ladder walk (manage.CalibrateFreqPredictors). The result is a pure
// function of (server spec, options) — exactly what the fleet's
// dcprovision job kind caches and what the dc scheduler and budget
// hierarchy consume.
func ProvisionServer(srv *Server, o ProvisionOptions) (*Provision, error) {
	m := srv.Machine
	dep, err := tuning.Deploy(m, tuning.Options{
		Seed:          o.Seed,
		Rollback:      o.Rollback,
		Passes:        provisionPasses,
		RunsPerConfig: provisionRunsPerConfig,
	})
	if err != nil {
		return nil, err
	}
	cfgByCore := make(map[string]tuning.CoreConfig, len(dep.Configs))
	for _, cfg := range dep.Configs {
		cfgByCore[cfg.Core] = cfg
	}

	out := &Provision{SiliconSeed: srv.Spec.SiliconSeed, SpeedDiffMHz: dep.SpeedDifferentialMHz()}
	for _, chp := range m.Chips {
		idle, err := dep.Idle.ChipState(chp.Profile.Label)
		if err != nil {
			return nil, err
		}
		loaded, err := dep.Loaded.ChipState(chp.Profile.Label)
		if err != nil {
			return nil, err
		}
		cp := ChipProvision{Chip: chp.Profile.Label, IdleW: float64(idle.Power), LoadedW: float64(loaded.Power)}
		var live []string
		for _, core := range chp.Cores {
			cfg, ok := cfgByCore[core.Profile.Label]
			if !ok {
				return nil, fmt.Errorf("platform: deployment has no config for core %s", core.Profile.Label)
			}
			cp.Cores = append(cp.Cores, CoreProvision{
				Core:          cfg.Core,
				StressLimit:   cfg.StressLimit,
				Reduction:     cfg.Reduction,
				IdleFreqMHz:   float64(cfg.IdleFreq),
				LoadedFreqMHz: float64(cfg.LoadedFreq),
				Quarantined:   cfg.Quarantined,
			})
			if !cfg.Quarantined {
				live = append(live, cfg.Core)
			}
		}
		fps, err := manage.CalibrateFreqPredictors(m, live)
		if err != nil {
			return nil, err
		}
		for i := range cp.Cores {
			if rec := &cp.Cores[i]; !rec.Quarantined {
				rec.FreqSlope, rec.FreqIntercept = fps[0].Fit.Slope, fps[0].Fit.Intercept
				fps = fps[1:]
			}
		}
		out.Chips = append(out.Chips, cp)
	}
	return out, nil
}
