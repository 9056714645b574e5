// Package core is the paper's primary contribution assembled into one
// pipeline: fine-tune the per-core ATM control loops of a POWER7+-class
// server, characterize their operating limits, deploy a stress-tested
// configuration, and manage the exposed variability for predictable
// application performance.
//
// The Suite type owns the end-to-end flow and regenerates every table
// and figure of the paper's evaluation (see DESIGN.md §5 for the
// experiment index). cmd/atmfigures and the repository's benchmark
// harness are thin callers of this package.
package core

import (
	"fmt"

	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/manage"
	"repro/internal/report"
	"repro/internal/silicon"
	"repro/internal/tuning"
)

// SuiteOptions configures the experiment pipeline.
type SuiteOptions struct {
	// Profile selects the silicon; nil uses the paper-calibrated
	// reference server.
	Profile *silicon.ServerProfile
	// FleetWorkers bounds the worker pool the fleet-backed extension
	// studies (ext-montecarlo) fan out on. Every value produces
	// byte-identical artifacts; it only changes wall-clock time.
	// Default 4.
	FleetWorkers int
}

// Suite is the materialized pipeline: machine, characterization report,
// deployment, and manager. Construct with NewSuite; stages run lazily
// and are cached.
type Suite struct {
	opts SuiteOptions

	M   *chip.Machine
	rep *charact.Report
	dep *tuning.Deployment
	mgr *manage.Manager
}

// NewSuite builds the machine for the experiment pipeline.
func NewSuite(opts SuiteOptions) (*Suite, error) {
	if opts.Profile == nil {
		opts.Profile = silicon.Reference()
	}
	if opts.FleetWorkers == 0 {
		opts.FleetWorkers = 4
	}
	m, err := chip.New(opts.Profile, chip.Options{})
	if err != nil {
		return nil, err
	}
	return &Suite{opts: opts, M: m}, nil
}

// Report runs (once) and returns the full characterization.
func (s *Suite) Report() (*charact.Report, error) {
	if s.rep == nil {
		rep, err := charact.Characterize(s.M, charact.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: characterization failed: %w", err)
		}
		if err := rep.Validate(); err != nil {
			return nil, err
		}
		s.rep = rep
	}
	return s.rep, nil
}

// Deployment runs (once) and returns the stress-test deployment.
func (s *Suite) Deployment() (*tuning.Deployment, error) {
	if s.dep == nil {
		dep, err := tuning.Deploy(s.M, tuning.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: deployment failed: %w", err)
		}
		s.dep = dep
	}
	return s.dep, nil
}

// Manager runs (once) and returns the managed-ATM scheduler, with
// predictors calibrated at the deployed configuration.
func (s *Suite) Manager() (*manage.Manager, error) {
	if s.mgr == nil {
		rep, err := s.Report()
		if err != nil {
			return nil, err
		}
		dep, err := s.Deployment()
		if err != nil {
			return nil, err
		}
		mgr, err := manage.NewManager(s.M, dep, rep)
		if err != nil {
			return nil, fmt.Errorf("core: manager construction failed: %w", err)
		}
		s.mgr = mgr
	}
	return s.mgr, nil
}

// Experiment is a named regeneration entry.
type Experiment struct {
	ID      string
	Caption string
	Run     func() (*report.Artifact, error)
}

// Experiments lists every paper artifact the suite can regenerate, in
// paper order.
func (s *Suite) Experiments() []Experiment {
	return []Experiment{
		{"fig1", "Frequency under chip-wide static, per-core static, default ATM, fine-tuned ATM", s.Fig1},
		{"fig2", "SqueezeNet inference latency under margin settings and schedules", s.Fig2},
		{"fig4b", "Pre-set CPM inserted delays of the two chips", s.Fig4b},
		{"fig5", "Frequency vs CPM delay reduction for example cores", s.Fig5},
		{"fig7", "Idle-limit distributions and frequencies per core", s.Fig7},
		{"table1", "ATM reconfiguration limits under idle / uBench / realistic workloads", s.Table1},
		{"fig8", "uBench rollback distributions for the failing cores", s.Fig8},
		{"fig9", "CPM rollback demanded by x264 vs gcc", s.Fig9},
		{"fig10", "Average CPM rollback per application and core", s.Fig10},
		{"fig11", "Deployed core frequencies after the test-time stress procedure", s.Fig11},
		{"fig12a", "Core frequency vs chip power (Eq. 1 predictor)", s.Fig12a},
		{"fig12b", "Application performance vs core frequency", s.Fig12b},
		{"table2", "Critical/background workload classification", s.Table2},
		{"fig14", "Critical application performance under management scenarios", s.Fig14},
	}
}

// RunExperiment regenerates one artifact by ID, searching the paper
// experiments and the extension studies.
func (s *Suite) RunExperiment(id string) (*report.Artifact, error) {
	for _, e := range append(s.Experiments(), s.ExtensionExperiments()...) {
		if e.ID == id {
			return e.Run()
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q (see Experiments and ExtensionExperiments)", id)
}
