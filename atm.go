// Package atm is the public API of the Active Timing Margin (ATM)
// fine-tuning library: a faithful software reproduction of "Fine-Tuning
// the Active Timing Margin (ATM) Control Loop for Maximizing Multi-Core
// Efficiency on an IBM POWER Server" (HPCA 2019).
//
// The library models a two-socket POWER7+-class server whose cores each
// carry programmable Critical Path Monitors (CPMs) and a per-core DPLL
// frequency control loop, and implements the paper's contribution on
// top of that platform:
//
//   - fine-tuning the per-core control loop by reducing CPM inserted
//     delay (Machine.ProgramCPM);
//   - the characterization methodology that finds each core's operating
//     limits under idle, micro-benchmark, and realistic workloads
//     (Characterize);
//   - the test-time stress-test deployment procedure (Deploy);
//   - the management layer — Eq. 1 frequency predictor, per-application
//     performance predictor, governors and the scheduler/throttler —
//     that turns the exposed variability into predictable performance
//     (NewManager);
//   - the full experiment suite regenerating every table and figure of
//     the paper's evaluation (NewSuite).
//
// Quick start:
//
//	machine := atm.NewReferenceMachine()
//	dep, err := atm.Deploy(machine, atm.DeployOptions{})
//	...
//	mgr, err := atm.NewManager(machine, dep, nil)
//	ev, err := mgr.Evaluate(atm.ScenarioManagedMax, pair, 0.10)
//
// The Example functions in example_test.go walk through the paper's
// flows and check their output under go test; DESIGN.md describes the
// model and its calibration against the paper's published measurements.
package atm

import (
	"repro/internal/charact"
	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dc"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/lifetime"
	"repro/internal/manage"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/silicon"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Re-exported platform types. The heavy lifting lives in internal
// packages; these aliases are the supported public surface.
type (
	// Machine is the simulated server: chips, cores, CPMs, control
	// loops, power delivery and thermal state.
	Machine = chip.Machine
	// Core is one core's runtime state (mode, p-state, workload, CPM
	// configuration).
	Core = chip.Core
	// OperatingPoint is a solved steady state of the whole machine.
	OperatingPoint = chip.State
	// UndervoltResult is the off-chip voltage controller's power-saving
	// operating point (Machine.SolveUndervolt) — the third ATM
	// component, which the paper's experiments disable.
	UndervoltResult = chip.UndervoltResult
	// SiliconProfile describes a server's manufactured silicon.
	SiliconProfile = silicon.ServerProfile
	// GenerateOptions controls the Monte-Carlo silicon generator.
	GenerateOptions = silicon.GenerateOptions

	// Workload is a behavioural workload profile.
	Workload = workload.Profile
	// Stressmark is a test-time worst-case generator.
	Stressmark = workload.Stressmark

	// CharactOptions tunes the characterization methodology.
	CharactOptions = charact.Options
	// CharactReport is the methodology's full output (Table I data,
	// Fig. 7–10 distributions).
	CharactReport = charact.Report

	// DeployOptions tunes the test-time stress-test deployment.
	DeployOptions = tuning.Options
	// Deployment is a server's deployed fine-tuned configuration.
	Deployment = tuning.Deployment

	// FaultProfile describes deterministic fault injection into the
	// trial harness: spurious trial failures and broken cores.
	FaultProfile = fault.Profile
	// FaultInjector arms a FaultProfile on a machine.
	FaultInjector = fault.Injector

	// MetricsRegistry collects deterministic counters, gauges, and
	// histograms from every instrumented layer; a nil registry disables
	// collection at ~zero cost.
	MetricsRegistry = obs.Registry
	// Tracer records simulated-time spans in Chrome trace_event JSON
	// (openable in Perfetto); a nil tracer disables tracing.
	Tracer = obs.Tracer

	// FleetJob is one self-contained experiment spec of a fleet
	// campaign (characterize / tune / Monte-Carlo deployment over a
	// generated or reference server).
	FleetJob = fleet.Job
	// FleetCampaign is an ordered set of independent fleet jobs; the
	// job order is the canonical merge order of the results.
	FleetCampaign = fleet.Campaign
	// FleetOptions configures a campaign run: worker-pool bound,
	// content-addressed cache directory, and obs plane wiring.
	FleetOptions = fleet.Options
	// FleetResult is the merged campaign outcome in canonical job
	// order — byte-identical for every worker count.
	FleetResult = fleet.CampaignResult

	// PlatformSpec names a simulated server completely: silicon seed
	// (0 = the paper-calibrated reference), chip count, fault profile.
	// Identical specs build identical servers.
	PlatformSpec = platform.Spec
	// PlatformServer is one materialized machine with its provenance.
	PlatformServer = platform.Server
	// ProvisionOptions tunes the datacenter intake pass.
	ProvisionOptions = platform.ProvisionOptions
	// Provision is a server's datacenter-intake record: deployed
	// configs, Eq. 1 predictor fits, power envelope.
	Provision = platform.Provision

	// DCOptions configures a datacenter campaign: topology, worker
	// pool, budget caps, tenants, faults, cache.
	DCOptions = dc.Options
	// DCResult is the campaign's canonical outcome — byte-identical
	// across worker counts and across fresh and cached runs.
	DCResult = dc.Result

	// LifetimeOptions configures a lifetime drift simulation: horizon,
	// seed, control arm (sentinel off), telemetry.
	LifetimeOptions = lifetime.Options
	// LifetimeResult is a lifetime simulation's outcome: the safety
	// verdict, intervention counts, per-core journeys and the timeline.
	LifetimeResult = lifetime.Result
	// LifetimeEvent is one timeline entry of a lifetime simulation.
	LifetimeEvent = lifetime.Event

	// Manager is the managed-ATM scheduler.
	Manager = manage.Manager
	// Governor selects the CPM configuration policy.
	Governor = manage.Governor
	// Scenario is one of the evaluation's system configurations.
	Scenario = manage.Scenario
	// Pair is a ⟨critical : background⟩ co-location.
	Pair = manage.Pair
	// Evaluation is a measured scenario outcome.
	Evaluation = manage.Evaluation

	// Suite regenerates the paper's tables and figures.
	Suite = core.Suite
	// SuiteOptions configures the experiment suite.
	SuiteOptions = core.SuiteOptions

	// JobSimulator is the discrete-event OS-level scheduler running
	// dynamic job traces under the management policies.
	JobSimulator = sched.Simulator
	// Job is one unit of scheduled work.
	Job = sched.Job
	// SchedOptions configures a scheduling run.
	SchedOptions = sched.Options
	// SchedResult aggregates a scheduling run.
	SchedResult = sched.Result
	// SchedPolicy selects placement/clocking for the job simulator.
	SchedPolicy = sched.Policy
)

// Scenarios (Fig. 14).
const (
	ScenarioStaticMargin       = manage.ScenarioStaticMargin
	ScenarioDefaultATM         = manage.ScenarioDefaultATM
	ScenarioFineTunedUnmanaged = manage.ScenarioFineTunedUnmanaged
	ScenarioManagedMax         = manage.ScenarioManagedMax
	ScenarioManagedBalanced    = manage.ScenarioManagedBalanced
)

// Governors (Fig. 13 policy knob).
const (
	GovernorDefault      = manage.GovernorDefault
	GovernorConservative = manage.GovernorConservative
	GovernorAggressive   = manage.GovernorAggressive
)

// Fleet job kinds (internal/fleet).
const (
	FleetCharacterize = fleet.KindCharacterize
	FleetTune         = fleet.KindTune
	FleetMonteCarlo   = fleet.KindMonteCarlo
	FleetLifetime     = fleet.KindLifetime
	FleetDCProvision  = fleet.KindDCProvision
)

// Lifetime timeline event kinds (internal/lifetime).
const (
	LifetimeEventFailure    = lifetime.EventFailure
	LifetimeEventStepBack   = lifetime.EventStepBack
	LifetimeEventRetune     = lifetime.EventRetune
	LifetimeEventStatic     = lifetime.EventStatic
	LifetimeEventQuarantine = lifetime.EventQuarantine
)

// Dynamic scheduling policies (internal/sched).
const (
	SchedStatic    = sched.PolicyStatic
	SchedOndemand  = sched.PolicyOndemand
	SchedUnmanaged = sched.PolicyUnmanaged
	SchedManaged   = sched.PolicyManaged
)

// NewReferenceMachine returns the machine calibrated to the paper's two
// POWER7+ chips: running the characterization methodology against it
// rediscovers the published Table I.
func NewReferenceMachine() *Machine { return chip.NewReference() }

// NewMachine builds a machine over an explicit silicon profile.
func NewMachine(profile *SiliconProfile) (*Machine, error) {
	return chip.New(profile, chip.Options{})
}

// GenerateSilicon manufactures a fresh server from the forward
// process-variation model — the method generalizes beyond the paper's
// two chips.
func GenerateSilicon(seed uint64, opts GenerateOptions) (*SiliconProfile, error) {
	return silicon.Generate(seed, opts)
}

// Characterize runs the paper's Sec. III-B methodology over every core:
// idle limits, uBench limits, and per-application rollback, producing
// the Table I / Fig. 7–10 data.
func Characterize(m *Machine, opts CharactOptions) (*CharactReport, error) {
	return charact.Characterize(m, opts)
}

// Deploy runs the Sec. VII-A test-time stress-test procedure and
// programs the machine with each core's fine-tuned configuration.
func Deploy(m *Machine, opts DeployOptions) (*Deployment, error) {
	return tuning.Deploy(m, opts)
}

// NewManager wires the Sec. VII management layer over a deployed
// machine: it calibrates the per-core Eq. 1 frequency predictors and the
// per-application performance predictors, then schedules and throttles
// to meet QoS. rep may be nil when only the default governor is used.
func NewManager(m *Machine, dep *Deployment, rep *CharactReport) (*Manager, error) {
	return manage.NewManager(m, dep, rep)
}

// NewSuite builds the experiment pipeline that regenerates every table
// and figure of the paper (see cmd/atmfigures).
func NewSuite(opts SuiteOptions) (*Suite, error) { return core.NewSuite(opts) }

// WorkloadByName looks up a workload profile (SPEC CPU 2017, PARSEC 3.0,
// DNN inference, uBench) by its benchmark name.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// VoltageVirus returns the paper's test-time di/dt + power stressmark.
func VoltageVirus() Stressmark { return workload.VoltageVirus() }

// NewJobSimulator builds the dynamic job scheduler over a deployed
// machine.
func NewJobSimulator(m *Machine, dep *Deployment, chipLabel string) (*JobSimulator, error) {
	return sched.NewSimulator(m, dep, chipLabel)
}

// GenerateJobTrace draws a reproducible Poisson job trace whose
// arrivals end at horizonSec. A horizon that is not positive and
// finite, or that expects more than 100,000 jobs, is an error.
func GenerateJobTrace(horizonSec float64, seed uint64) ([]Job, error) {
	return sched.GenerateTrace(horizonSec, rng.New(seed))
}

// ParseFaultProfile builds a fault profile from a spec string: a preset
// name (FaultPresetNames), a key=value list ("trial-err=0.1,broken=1"),
// or a preset with overrides ("test-floor,broken=1").
func ParseFaultProfile(spec string) (FaultProfile, error) { return fault.ParseProfile(spec) }

// FaultPresetNames lists the named fault profiles in sorted order.
func FaultPresetNames() []string { return fault.PresetNames() }

// NewMetricsRegistry builds an empty metrics registry. Pass it through
// CharactOptions/DeployOptions (and FaultInjector.Observe) to collect,
// then export with SnapshotJSON — byte-identical across
// identically-seeded runs.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer builds an empty span tracer keyed on simulated/logical time
// (never the wall clock). Export with WriteJSON.
func NewTracer() *Tracer { return obs.NewTracer() }

// RunCampaign fans a campaign of independent experiment jobs across a
// bounded worker pool and merges the results in canonical job order.
// The merged output — and every obs export — is byte-identical
// regardless of Workers; with a cache directory, completed jobs are
// content-addressed on disk so re-runs skip them, and a killed campaign
// rerun on the same directory finishes where it stopped.
func RunCampaign(c *FleetCampaign, o FleetOptions) (*FleetResult, error) {
	return fleet.Run(c, o)
}

// MonteCarloCampaign builds the Monte-Carlo population campaign: n
// servers manufactured from silicon seeds start..start+n-1, each
// stress-test deployed.
func MonteCarloCampaign(n int, start uint64) *FleetCampaign { return fleet.MonteCarlo(n, start) }

// TuneCampaign builds a deployment sweep over n generated servers,
// optionally under a deterministic fault profile whose per-job streams
// are independent rng splits of faultSeed.
func TuneCampaign(n int, start uint64, rollback int, faultProfile string, faultSeed uint64) *FleetCampaign {
	return fleet.TuneSweep(n, start, rollback, faultProfile, faultSeed)
}

// CharacterizeCampaign builds a characterization sweep over n generated
// servers (trials 0 = the methodology default).
func CharacterizeCampaign(n int, start uint64, trials int, faultProfile string, faultSeed uint64) *FleetCampaign {
	return fleet.CharacterizeSweep(n, start, trials, faultProfile, faultSeed)
}

// SimulateLifetime ages a fine-tuned server through years of simulated
// field operation: seeded NBTI/HCI drift erodes the tuned margins while
// the closed-loop margin sentinel (unless disabled) watches CPM slack
// telemetry and walks its escalation ladder — step-back, bounded online
// re-tune, static fallback, quarantine — to keep the configuration
// safe. The result is a pure function of (profile, options).
func SimulateLifetime(profile *SiliconProfile, o LifetimeOptions) (*LifetimeResult, error) {
	return lifetime.Run(profile, o)
}

// BuildServer materializes a server spec through the shared platform
// recipe: silicon (reference or generated), machine, and optional
// deterministic fault arming. Fleet jobs, the CLIs and the datacenter
// plane all construct servers through this one path.
func BuildServer(spec PlatformSpec) (*PlatformServer, error) { return platform.Build(spec) }

// ArmFaults parses a fault profile spec and arms it on a machine
// through the shared platform recipe: nil injector for an empty or
// "none" spec (fault-free runs keep their exact pre-fault code path),
// seed 0 normalized to the injector default of 1.
func ArmFaults(m *Machine, profileSpec string, seed uint64) (*FaultInjector, error) {
	return platform.Arm(m, profileSpec, seed)
}

// ProvisionServer runs the datacenter intake pass on a built server:
// stress-test deployment, per-core Eq. 1 predictor calibration, and
// the idle/loaded power envelope per chip.
func ProvisionServer(srv *PlatformServer, o ProvisionOptions) (*Provision, error) {
	return platform.ProvisionServer(srv, o)
}

// RunDatacenter executes a rack-scale campaign: every node provisioned
// through the fleet (sharded, cached, resumable), then the
// hierarchical power budget and the Eq. 1 predictor-driven scheduler
// simulated over a seeded tenant stream. The canonical result is
// byte-identical at every worker count.
func RunDatacenter(o DCOptions) (*DCResult, error) { return dc.Run(o) }

// DatacenterCampaign builds the intake fleet campaign for a topology
// without running it — one single-chip dcprovision job per node.
func DatacenterCampaign(o DCOptions) *FleetCampaign { return dc.Campaign(o) }

// ReferenceTableIRow returns the paper's published Table I limits for a
// reference core label, for comparing regenerated results against the
// paper.
func ReferenceTableIRow(core string) (idle, uBench, normal, worst int, ok bool) {
	return silicon.ReferenceTableI(core)
}
