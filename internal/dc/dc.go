// Package dc is the datacenter plane: a deterministic rack-scale
// simulation where racks hold chassis of simulated POWER servers, each
// manufactured from its own silicon seed and fine-tuned through the
// full ATM stress-test flow. The plane has two phases:
//
//  1. Intake — every node is provisioned through internal/platform as
//     a fleet dcprovision job (sharded across workers, served from a
//     content-addressed cache on a rerun): stress-test deployment,
//     per-core Eq. 1 frequency-predictor calibration, and the
//     idle/loaded power envelope. A node whose provision fails is
//     quarantined behind a tripped circuit breaker; the rack keeps
//     going.
//  2. Operation — a single-threaded tick loop runs the hierarchical
//     power budget (rack PDU → chassis → chip water-fill with a
//     Chen-style integral controller per chip, see budget.go) and the
//     predictor-driven global scheduler (place.go) over a seeded
//     tenant arrival stream.
//
// Both phases are pure functions of Options: the canonical Result
// serializes byte-identically at every worker count, plain or faulted,
// fresh or served from the cache.
package dc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/rng"
)

// Options configures a datacenter campaign. The zero value of every
// field selects the noted default.
type Options struct {
	// Racks, ChassisPerRack, ChipsPerChassis shape the topology.
	// Defaults 1, 2, 4.
	Racks           int
	ChassisPerRack  int
	ChipsPerChassis int
	// Workers bounds the intake phase's fleet pool (<=0 = 1). The
	// result is byte-identical for every value.
	Workers int
	// Seed drives the tenant stream and the per-node trial seeds
	// (node i deploys with Seed+i). Default 1.
	Seed uint64
	// SiliconStart is the first node's silicon seed; node i is
	// manufactured from SiliconStart+i. Default 1.
	SiliconStart uint64
	// Tenants is the workload count (0 = 2 per chip).
	Tenants int
	// Ticks is the operation horizon (0 = 32).
	Ticks int
	// Rollback is the intake deployment's extra safety margin.
	Rollback int
	// RackCapW, ChassisCapW, ChipCapW cap each level of the budget
	// hierarchy. 0 derives the cap from the provisioned envelope (see
	// autoCaps): tight enough that the controller visibly throttles,
	// loose enough that idle draw always fits. Run rejects a cap below
	// its level's largest idle draw, which no throttle can shed.
	RackCapW    float64
	ChassisCapW float64
	ChipCapW    float64
	// KI is the per-chip integral gain (0 = 0.5).
	KI float64
	// FaultProfile, when non-empty, arms deterministic fault injection
	// on every node, each with an independent stream split from
	// FaultSeed by node ID.
	FaultProfile string
	FaultSeed    uint64
	// OpsFaultProfile is the operational fault timeline
	// (ParseOpsProfile spec): seeded runtime chip deaths, FSP link
	// flaps, PDU brownouts and thermal excursions drawn from labelled
	// splits of OpsFaultSeed (0 = 1), with the recovery ladder, tenant
	// migration and degraded-mode water-fill built on top. An empty
	// profile ("", "none") schedules nothing and reports no ops summary.
	OpsFaultProfile string
	OpsFaultSeed    uint64
	// CacheDir passes through to the intake fleet: a content-addressed
	// provision cache, so a killed intake rerun on the same directory
	// provisions only the nodes it had not finished.
	CacheDir string
	// Obs, when non-nil, collects budget-loop gauges, placement and
	// throttle counters, and the intake fleet's own series.
	Obs *obs.Registry
	// Trace, when non-nil, records the intake job spans (via the
	// fleet) and one span per placed tenant on the tick axis, emitted
	// in tenant order after the sim so the trace is deterministic.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.Racks <= 0 {
		o.Racks = 1
	}
	if o.ChassisPerRack <= 0 {
		o.ChassisPerRack = 2
	}
	if o.ChipsPerChassis <= 0 {
		o.ChipsPerChassis = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SiliconStart == 0 {
		o.SiliconStart = 1
	}
	chips := o.Racks * o.ChassisPerRack * o.ChipsPerChassis
	if o.Tenants == 0 {
		o.Tenants = 2 * chips
	}
	if o.Ticks <= 0 {
		o.Ticks = 32
	}
	if o.KI <= 0 {
		o.KI = 0.5
	}
	return o
}

// Validate rejects options no campaign can run: a negative topology
// count, tenant count, horizon or rollback, a cap or ki that is
// negative or not finite, a Seed or SiliconStart whose per-node range
// wraps past 2^64−1, and a fault or ops profile spec that does not
// parse. Zero still selects each default. Run calls it first, so
// none of these reaches the intake.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"racks", float64(o.Racks)}, {"chassis per rack", float64(o.ChassisPerRack)},
		{"chips per chassis", float64(o.ChipsPerChassis)}, {"tenants", float64(o.Tenants)},
		{"ticks", float64(o.Ticks)}, {"rollback", float64(o.Rollback)},
		{"rack cap", o.RackCapW}, {"chassis cap", o.ChassisCapW}, {"chip cap", o.ChipCapW},
		{"ki", o.KI},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("dc: %s %v is not finite and non-negative", f.name, f.v)
		}
	}
	// Node i takes Seed+i and SiliconStart+i.
	d := o.withDefaults()
	nodes := d.Racks * d.ChassisPerRack * d.ChipsPerChassis
	if err := fleet.CheckSeedRange("dc: seed", d.Seed, nodes); err != nil {
		return err
	}
	if err := fleet.CheckSeedRange("dc: silicon start", d.SiliconStart, nodes); err != nil {
		return err
	}
	if _, err := fault.ParseProfile(o.FaultProfile); err != nil {
		return err
	}
	_, err := ParseOpsProfile(o.OpsFaultProfile)
	return err
}

// Topology records the campaign's shape in the result document.
type Topology struct {
	Racks           int    `json:"racks"`
	ChassisPerRack  int    `json:"chassis_per_rack"`
	ChipsPerChassis int    `json:"chips_per_chassis"`
	Chips           int    `json:"chips"`
	Tenants         int    `json:"tenants"`
	Ticks           int    `json:"ticks"`
	Seed            uint64 `json:"seed"`
	SiliconStart    uint64 `json:"silicon_start"`
	FaultProfile    string `json:"fault_profile,omitempty"`
}

// ChipSummary is one node's intake outcome.
type ChipSummary struct {
	Node        string `json:"node"`
	SiliconSeed uint64 `json:"silicon_seed"`
	// Err is the node's provision failure ("" on success). Failed
	// nodes are quarantined behind a tripped breaker.
	Err              string  `json:"err,omitempty"`
	Quarantined      bool    `json:"quarantined,omitempty"`
	QuarantinedCores int     `json:"quarantined_cores,omitempty"`
	IdleW            float64 `json:"idle_w,omitempty"`
	LoadedW          float64 `json:"loaded_w,omitempty"`
	SpeedDiffMHz     float64 `json:"speed_diff_mhz,omitempty"`
}

// TenantOutcome is one workload's fate.
type TenantOutcome struct {
	ID       int    `json:"id"`
	Workload string `json:"workload"`
	Critical bool   `json:"critical,omitempty"`
	Arrival  int    `json:"arrival"`
	// Node/Core locate the placement ("" if never placed).
	Node string `json:"node,omitempty"`
	Core string `json:"core,omitempty"`
	// PredFreqMHz is the Eq. 1 predicted frequency at placement time —
	// the number the scheduler maximized.
	PredFreqMHz    float64 `json:"pred_freq_mhz,omitempty"`
	Start          int     `json:"start,omitempty"`
	End            int     `json:"end,omitempty"`
	ThrottledTicks int     `json:"throttled_ticks,omitempty"`
	Placed         bool    `json:"placed,omitempty"`
	Completed      bool    `json:"completed,omitempty"`
	// Operational-fault fate (all zero under an empty ops profile):
	// Migrations counts successful re-placements after evacuation,
	// DowntimeTicks the queued-while-displaced ticks, Shed marks a
	// displaced tenant never re-placed by the horizon.
	Migrations    int  `json:"migrations,omitempty"`
	DowntimeTicks int  `json:"downtime_ticks,omitempty"`
	Shed          bool `json:"shed,omitempty"`
}

// TickRow is one operation tick of the budget timeline: the maximum
// draw seen at each level against its cap, and the scheduler state.
type TickRow struct {
	Tick        int     `json:"tick"`
	RackMaxW    float64 `json:"rack_max_w"`
	ChassisMaxW float64 `json:"chassis_max_w"`
	ChipMaxW    float64 `json:"chip_max_w"`
	Queued      int     `json:"queued"`
	Running     int     `json:"running"`
	Throttled   int     `json:"throttled"`
	// Violations counts levels over their BudgetTree.Check threshold
	// this tick. Run rejects caps below idle, so a non-zero count is a
	// broken invariant.
	Violations int `json:"violations"`
	// Down counts chips out of service this tick (dead, quarantined,
	// or telemetry-dark); always 0 under an empty ops profile.
	Down int `json:"down,omitempty"`
}

// BudgetSummary records the hierarchy's configuration and outcome.
type BudgetSummary struct {
	RackCapW       float64 `json:"rack_cap_w"`
	ChassisCapW    float64 `json:"chassis_cap_w"`
	ChipCapW       float64 `json:"chip_cap_w"`
	KI             float64 `json:"ki"`
	PeakRackW      float64 `json:"peak_rack_w"`
	PeakChassisW   float64 `json:"peak_chassis_w"`
	PeakChipW      float64 `json:"peak_chip_w"`
	Violations     int     `json:"violations"`
	ThrottleEvents int     `json:"throttle_events"`
	ResumeEvents   int     `json:"resume_events"`
}

// PlacementSummary records the scheduler's outcome.
type PlacementSummary struct {
	Placed          int   `json:"placed"`
	Completed       int   `json:"completed"`
	Unplaced        int   `json:"unplaced"`
	Deferrals       int   `json:"deferrals"`
	BreakerRejected int64 `json:"breaker_rejected"`
}

// Result is the campaign's canonical outcome: byte-identical across
// worker counts and across fresh, cached, and rerun intakes.
type Result struct {
	Topology     Topology         `json:"topology"`
	CampaignHash string           `json:"campaign_hash"`
	Chips        []ChipSummary    `json:"chips"`
	Tenants      []TenantOutcome  `json:"tenants"`
	Timeline     []TickRow        `json:"timeline"`
	Budget       BudgetSummary    `json:"budget"`
	Placement    PlacementSummary `json:"placement"`

	// Ops and Events carry the operational fault plane's availability
	// summary and event/recovery timeline; both absent under an empty
	// ops profile, which keeps a plain run's serialization.
	Ops    *OpsSummary `json:"ops,omitempty"`
	Events []OpsEvent  `json:"events,omitempty"`

	// FailedJobs lists intake jobs that failed (provenance for the
	// exit-code contract; the nodes are quarantined, not fatal).
	FailedJobs []string `json:"failed_jobs,omitempty"`
	// CachedJobs counts intake results served from the cache. Cached
	// is provenance, not content: it is excluded from the canonical
	// serialization so rerun campaigns stay byte-identical.
	CachedJobs int `json:"-"`
}

// QuarantinedChips counts nodes the scheduler never places on.
func (r *Result) QuarantinedChips() int {
	n := 0
	for _, c := range r.Chips {
		if c.Quarantined {
			n++
		}
	}
	return n
}

// WriteJSON writes the canonical result document with a trailing
// newline.
func (r *Result) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return err
	}
	_, err := w.Write(b.Bytes())
	return err
}

// NodeID names a chip slot: rack, chassis, slot in topology order.
func NodeID(rack, chassis, slot int) string {
	return fmt.Sprintf("r%02dc%02ds%02d", rack, chassis, slot)
}

// Campaign builds the intake fleet campaign for the topology: one
// single-chip dcprovision job per node, silicon seeds SiliconStart+i,
// trial seeds Seed+i, fault streams split from FaultSeed by node ID.
// An armed ops profile is stamped (canonically) into every job spec so
// the campaign_hash the result prints, and each job's cache key, name
// the whole operational scenario, not just the intake inputs.
func Campaign(o Options) *fleet.Campaign {
	o = o.withDefaults()
	name := fmt.Sprintf("dc-r%dc%ds%d-s%d", o.Racks, o.ChassisPerRack, o.ChipsPerChassis, o.SiliconStart)
	if o.FaultProfile != "" {
		name += "-faulted"
	}
	var opsProfile string
	var opsSeed uint64
	if p, err := ParseOpsProfile(o.OpsFaultProfile); err == nil && !p.Empty() {
		opsProfile = p.String()
		opsSeed = o.OpsFaultSeed
		if opsSeed == 0 {
			opsSeed = 1
		}
		name += "-ops"
	}
	c := &fleet.Campaign{Name: name}
	i := 0
	for r := 0; r < o.Racks; r++ {
		for ch := 0; ch < o.ChassisPerRack; ch++ {
			for s := 0; s < o.ChipsPerChassis; s++ {
				node := NodeID(r, ch, s)
				j := fleet.Job{
					ID:          "dc-" + node,
					Kind:        fleet.KindDCProvision,
					SiliconSeed: o.SiliconStart + uint64(i),
					Chips:       1,
					Seed:        o.Seed + uint64(i),
					Rollback:    o.Rollback,
				}
				if o.FaultProfile != "" {
					j.FaultProfile = o.FaultProfile
					base := o.FaultSeed
					if base == 0 {
						base = 1
					}
					seed := rng.New(base).Split("dc/" + node).Uint64()
					if seed == 0 {
						seed = 1
					}
					j.FaultSeed = seed
				}
				if opsProfile != "" {
					j.OpsProfile = opsProfile
					j.OpsSeed = opsSeed
				}
				c.Jobs = append(c.Jobs, j)
				i++
			}
		}
	}
	return c
}

// Run executes the campaign: sharded intake, then the budget/placement
// simulation. A failed node quarantines its chip and the run
// continues; Run errors only on invalid options, spec or
// infrastructure failures.
func Run(o Options) (*Result, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	ops, err := ParseOpsProfile(o.OpsFaultProfile)
	if err != nil {
		return nil, err
	}
	campaign := Campaign(o)
	fres, err := fleet.Run(campaign, fleet.Options{
		Workers:  o.Workers,
		CacheDir: o.CacheDir,
		Obs:      o.Obs,
		Trace:    o.Trace,
	})
	if err != nil {
		return nil, err
	}
	return simulate(o, ops, campaign, fres)
}

// intakeChips turns the merged fleet results into the scheduler's chip
// view plus the per-node summaries and retained provision records, in
// topology order. Every node's breaker runs on clock, the sim's logical
// tick. A failed node's is tripped open past the sim horizon; a live
// node's has an open window of reAdmitTicks, so a runtime quarantine
// earns a re-admission probe.
func intakeChips(o Options, fres *fleet.CampaignResult, clock *int64, reAdmitTicks int64) ([]PlacerChip, []ChipSummary, []*platform.Provision) {
	now := func() int64 { return *clock }
	chips := make([]PlacerChip, len(fres.Results))
	sums := make([]ChipSummary, len(fres.Results))
	provs := make([]*platform.Provision, len(fres.Results))
	i := 0
	for r := 0; r < o.Racks; r++ {
		for ch := 0; ch < o.ChassisPerRack; ch++ {
			for s := 0; s < o.ChipsPerChassis; s++ {
				node := NodeID(r, ch, s)
				res := fres.Results[i]
				sum := ChipSummary{Node: node, SiliconSeed: o.SiliconStart + uint64(i)}
				pc := PlacerChip{ID: node}
				prov, derr := res.DCProvision()
				switch {
				case derr != nil:
					sum.Err = res.Err
					if sum.Err == "" {
						sum.Err = derr.Error()
					}
					sum.Quarantined = true
					pc.Quarantined = true
				case len(prov.Provision.Chips) != 1:
					sum.Err = fmt.Sprintf("dc: node %s provisioned %d chips, want 1", node, len(prov.Provision.Chips))
					sum.Quarantined = true
					pc.Quarantined = true
				default:
					cp := prov.Provision.Chips[0]
					sum.IdleW = cp.IdleW
					sum.LoadedW = cp.LoadedW
					sum.SpeedDiffMHz = prov.Provision.SpeedDiffMHz
					pc.IdleW = cp.IdleW
					pc.SpanW = 0
					if n := len(cp.Cores); n > 0 {
						pc.SpanW = (cp.LoadedW - cp.IdleW) / float64(n)
					}
					live := 0
					for _, core := range cp.Cores {
						pc.Cores = append(pc.Cores, PlacerCore{
							Label:       core.Core,
							Quarantined: core.Quarantined,
							Slope:       core.FreqSlope,
							Intercept:   core.FreqIntercept,
						})
						if core.Quarantined {
							sum.QuarantinedCores++
						} else {
							live++
						}
					}
					if live == 0 {
						sum.Quarantined = true
						pc.Quarantined = true
					}
					provs[i] = prov.Provision
				}
				opts := guard.BreakerOptions{
					Name: "dc/" + node,
					// One failed provision quarantines the node; the
					// open window outlasts any sim horizon so the
					// breaker never half-opens into a broken chip.
					FailureThreshold: 1,
					OpenTicks:        1 << 40,
					Now:              now,
					Obs:              o.Obs,
				}
				if !pc.Quarantined {
					// Runtime quarantines (ops plane only) probe for
					// re-admission after their open window.
					opts.OpenTicks = reAdmitTicks
				}
				pc.Breaker = guard.NewBreaker(opts)
				if pc.Quarantined {
					pc.Breaker.Failure()
				}
				chips[i] = pc
				sums[i] = sum
				i++
			}
		}
	}
	return chips, sums, provs
}

// autoCaps derives the budget caps not set explicitly. The chip cap
// sits at 92% of the hottest provisioned envelope (so a fully loaded
// chip must be throttled), the chassis cap at 75% of its chips' summed
// caps, the rack cap at 85% of its chassis' — each floored at 105% of
// the level's worst-case idle draw so an idle fleet always fits. A
// final cap below its level's largest live idle draw is an error.
func autoCaps(o Options, chips []PlacerChip) (rackCap, chassisCap, chipCap float64, err error) {
	rackCap, chassisCap, chipCap = o.RackCapW, o.ChassisCapW, o.ChipCapW
	if chipCap == 0 {
		maxLoaded := 0.0
		for i := range chips {
			loaded := chips[i].IdleW + chips[i].SpanW*float64(len(chips[i].Cores))
			if !chips[i].Quarantined && loaded > maxLoaded {
				maxLoaded = loaded
			}
		}
		if maxLoaded == 0 {
			maxLoaded = 100 // every node quarantined; any positive cap does
		}
		chipCap = 0.92 * maxLoaded
	}
	maxChipIdle, maxChassisIdle, maxRackIdle := 0.0, 0.0, 0.0
	for r := 0; r < o.Racks; r++ {
		rackIdle := 0.0
		for c := 0; c < o.ChassisPerRack; c++ {
			idle := 0.0
			for s := 0; s < o.ChipsPerChassis; s++ {
				i := (r*o.ChassisPerRack+c)*o.ChipsPerChassis + s
				if !chips[i].Quarantined {
					idle += chips[i].IdleW
					maxChipIdle = max(maxChipIdle, chips[i].IdleW)
				}
			}
			if idle > maxChassisIdle {
				maxChassisIdle = idle
			}
			rackIdle += idle
		}
		if rackIdle > maxRackIdle {
			maxRackIdle = rackIdle
		}
	}
	if chassisCap == 0 {
		chassisCap = 0.75 * float64(o.ChipsPerChassis) * chipCap
		if floor := 1.05 * maxChassisIdle; chassisCap < floor {
			chassisCap = floor
		}
	}
	if rackCap == 0 {
		rackCap = 0.85 * float64(o.ChassisPerRack) * chassisCap
		if floor := 1.05 * maxRackIdle; rackCap < floor {
			rackCap = floor
		}
	}
	for _, l := range []struct {
		level       string
		capW, idleW float64
	}{{"chip", chipCap, maxChipIdle}, {"chassis", chassisCap, maxChassisIdle}, {"rack", rackCap, maxRackIdle}} {
		if l.capW < l.idleW {
			return 0, 0, 0, fmt.Errorf("dc: %s cap %g W is below the largest %s idle draw, %g W; idle power cannot be shed",
				l.level, l.capW, l.level, l.idleW)
		}
	}
	return rackCap, chassisCap, chipCap, nil
}
