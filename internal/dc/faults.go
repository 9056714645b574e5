package dc

// The operational fault timeline: seeded runtime disturbances the
// provisioned fleet must absorb after intake. PR 9's plane only
// injected faults at provisioning time — once a chip survived intake
// it was immortal for the whole operation sim, so the budget loop and
// the Eq. 1 placer were never exercised under the events a real fleet
// sees. This file draws those events deterministically: chip death
// mid-sim, FSP link flaps (telemetry loss for a window of ticks), PDU
// cap excursions (brownouts) at rack and chassis level, and thermal
// excursions that force a chip's allowance below its idle floor.
//
// Every draw comes from a labelled split of the ops seed — one stream
// per entity ("dc/ops/<node>", "dc/ops/<chassis>", "dc/ops/<rack>") —
// and the schedule is fixed before the first tick, so the whole run
// replays bit-for-bit from (profile, seed, topology) at every worker
// count. The recovery half lives in recovery.go.

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/rng"
)

// OpsProfile describes the operational disturbance environment for a
// datacenter run: event counts over the horizon plus their shapes. The
// zero value injects nothing.
type OpsProfile struct {
	// ChipDeaths is the number of chips that die permanently at a
	// seeded tick. Their tenants are evacuated and their idle draw is
	// handed back to the budget hierarchy.
	ChipDeaths int `spec:"chip-deaths"`
	// LinkFlaps is the number of FSP link-flap events: the node's
	// telemetry goes dark for FlapTicks ticks. A flap outlasting the
	// GraceTicks window quarantines the node (tenants evacuated,
	// breaker opened); the node is re-admitted when the link returns.
	LinkFlaps int `spec:"link-flaps"`
	// FlapTicks is a flap's telemetry-loss duration (default 6).
	FlapTicks int `spec:"flap-ticks"`
	// GraceTicks is the telemetry-loss grace window: a node dark for
	// longer is quarantined (default 2).
	GraceTicks int `spec:"grace"`
	// ReAdmitTicks is the quarantine breaker's open window in logical
	// ticks before a re-admission probe is allowed (default 2).
	ReAdmitTicks int `spec:"readmit"`
	// Brownouts / RackBrownouts are PDU cap excursions at chassis and
	// rack level: the affected cap drops to BrownoutFrac of its
	// configured value for BrownoutTicks ticks, and the water-fill
	// re-apportions the reduced budget over the survivors.
	Brownouts     int `spec:"brownouts"`
	RackBrownouts int `spec:"rack-brownouts"`
	// BrownoutFrac is the cap multiplier during a brownout (default 0.6).
	BrownoutFrac float64 `spec:"brownout-frac"`
	// BrownoutTicks is a brownout's duration (default 6).
	BrownoutTicks int `spec:"brownout-ticks"`
	// Thermals is the number of chip thermal excursions: the chip's
	// allowance is forced to ThermalFrac of its idle floor — below
	// idle, the carve-out case of the cap invariant — for ThermalTicks
	// ticks, shedding every tenant on it to idle draw.
	Thermals int `spec:"thermals"`
	// ThermalFrac is the fraction of the chip's idle floor the forced
	// cap drops to (default 0.5; must stay below 1 so the excursion
	// actually lands under the idle floor).
	ThermalFrac float64 `spec:"thermal-frac"`
	// ThermalTicks is a thermal excursion's duration (default 4).
	ThermalTicks int `spec:"thermal-ticks"`
}

// Empty reports whether the profile schedules no events at all.
func (p OpsProfile) Empty() bool {
	return p.ChipDeaths == 0 && p.LinkFlaps == 0 &&
		p.Brownouts == 0 && p.RackBrownouts == 0 && p.Thermals == 0
}

// withDefaults fills the shape defaults for enabled event classes.
func (p OpsProfile) withDefaults() OpsProfile {
	if p.LinkFlaps > 0 {
		if p.FlapTicks == 0 {
			p.FlapTicks = 6
		}
		if p.GraceTicks == 0 {
			p.GraceTicks = 2
		}
		if p.ReAdmitTicks == 0 {
			p.ReAdmitTicks = 2
		}
	}
	if p.Brownouts > 0 || p.RackBrownouts > 0 {
		if p.BrownoutFrac == 0 {
			p.BrownoutFrac = 0.6
		}
		if p.BrownoutTicks == 0 {
			p.BrownoutTicks = 6
		}
	}
	if p.Thermals > 0 {
		if p.ThermalFrac == 0 {
			p.ThermalFrac = 0.5
		}
		if p.ThermalTicks == 0 {
			p.ThermalTicks = 4
		}
	}
	return p
}

// Validate rejects negative counts and out-of-range shapes, NaN
// fractions included.
func (p OpsProfile) Validate() error {
	if p.ChipDeaths < 0 || p.LinkFlaps < 0 || p.Brownouts < 0 ||
		p.RackBrownouts < 0 || p.Thermals < 0 {
		return fmt.Errorf("dc: negative event count in ops profile %+v", p)
	}
	if p.FlapTicks < 0 || p.GraceTicks < 0 || p.ReAdmitTicks < 0 ||
		p.BrownoutTicks < 0 || p.ThermalTicks < 0 {
		return fmt.Errorf("dc: negative duration in ops profile %+v", p)
	}
	if !(p.BrownoutFrac >= 0 && p.BrownoutFrac <= 1) {
		return fmt.Errorf("dc: brownout-frac %v outside [0,1]", p.BrownoutFrac)
	}
	if !(p.ThermalFrac >= 0 && p.ThermalFrac < 1) {
		return fmt.Errorf("dc: thermal-frac %v outside [0,1) — the excursion must land below the idle floor", p.ThermalFrac)
	}
	return nil
}

// opsPresets are the named scenarios -ops-fault-profile accepts.
var opsPresets = map[string]OpsProfile{
	"none": {},
	// ops-storm: a bit of everything — the baseline hostile operation.
	"ops-storm": {ChipDeaths: 1, LinkFlaps: 2, Brownouts: 1, Thermals: 1},
	// chip-death: one node dies mid-sim; its tenants must migrate.
	"chip-death": {ChipDeaths: 1},
	// flaky-links: FSP links drop long enough to quarantine, then
	// recover — the full grace → quarantine → re-admit ladder.
	"flaky-links": {LinkFlaps: 2},
	// brownout / rack-brownout: one PDU cap excursion at the chassis
	// or rack level; the water-fill degrades and recovers.
	"brownout":      {Brownouts: 1},
	"rack-brownout": {RackBrownouts: 1},
	// thermal: one chip is forced below its idle floor.
	"thermal": {Thermals: 1},
}

// ParseOpsProfile builds an OpsProfile from a spec string in
// fault.ParseProfile's grammar: a preset name ("ops-storm"), a
// comma-separated key=value list ("chip-deaths=1,brownouts=2"), or a
// preset with overrides ("flaky-links,grace=4"). The empty string and
// "none" are the empty profile.
func ParseOpsProfile(spec string) (OpsProfile, error) {
	return fault.ParseSpec(spec, opsPresets, OpsProfile.withDefaults, "dc", "ops ")
}

// String renders the profile as a canonical key=value spec
// ParseOpsProfile accepts; the empty profile renders as "none".
func (p OpsProfile) String() string { return fault.FormatSpec(p) }

// OpsKind identifies a scheduled operational event class.
type OpsKind uint8

// The scheduled event classes, in intra-tick application order.
const (
	OpsChipDeath OpsKind = iota
	OpsLinkFlap
	OpsThermal
	OpsBrownout
	OpsRackBrownout
)

// String names the event class for the emitted timeline.
func (k OpsKind) String() string {
	switch k {
	case OpsChipDeath:
		return "chip-death"
	case OpsLinkFlap:
		return "link-down"
	case OpsThermal:
		return "thermal-start"
	case OpsBrownout:
		return "brownout-start"
	case OpsRackBrownout:
		return "brownout-start"
	default:
		return "invalid"
	}
}

// OpsSched is one scheduled event: when it fires, what it is, and
// which entity it targets (chip index for deaths/flaps/thermals,
// chassis index rack*chassisPerRack+chassis for chassis brownouts,
// rack index for rack brownouts). Duration is the event's active
// window in ticks.
type OpsSched struct {
	Tick     int
	Kind     OpsKind
	Target   int
	Duration int
}

// opsCandidate ranks one entity for event selection.
type opsCandidate struct {
	score uint64
	idx   int
	tick  int
}

// pickLowest sorts candidates by (score, idx) and returns the first n.
// The ranking makes "which N entities are hit" a pure function of the
// seeded per-entity streams, independent of topology iteration order.
func pickLowest(cands []opsCandidate, n int) []opsCandidate {
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score < cands[j].score
		}
		return cands[i].idx < cands[j].idx
	})
	if n > len(cands) {
		n = len(cands)
	}
	return cands[:n]
}

// DrawOps draws the operational fault schedule for the topology from
// labelled per-entity streams of the ops seed. live, when non-nil,
// marks the chips eligible for chip-scoped events (deaths, flaps,
// thermals) — intake-quarantined nodes cannot die twice; nil treats
// every chip as live. The returned schedule is sorted by (tick, kind,
// target) and is a pure function of (profile, seed, topology, live).
func DrawOps(p OpsProfile, seed uint64, o Options, live []bool) []OpsSched {
	p = p.withDefaults()
	if p.Empty() {
		return nil
	}
	o = o.withDefaults()
	if seed == 0 {
		seed = 1
	}
	base := rng.New(seed)
	maxTick := o.Ticks - 1
	if maxTick < 1 {
		maxTick = 1
	}

	nChips := o.Racks * o.ChassisPerRack * o.ChipsPerChassis
	// Per-chip streams: each live chip draws (score, tick) for every
	// chip-scoped event class in a fixed order, so the schedule never
	// depends on which classes are enabled.
	deaths := make([]opsCandidate, 0, nChips)
	flaps := make([]opsCandidate, 0, nChips)
	thermals := make([]opsCandidate, 0, nChips)
	i := 0
	for r := 0; r < o.Racks; r++ {
		for c := 0; c < o.ChassisPerRack; c++ {
			for s := 0; s < o.ChipsPerChassis; s++ {
				if live == nil || live[i] {
					st := base.Split("dc/ops/" + NodeID(r, c, s))
					deaths = append(deaths, opsCandidate{st.Uint64(), i, 1 + st.Intn(maxTick)})
					flaps = append(flaps, opsCandidate{st.Uint64(), i, 1 + st.Intn(maxTick)})
					thermals = append(thermals, opsCandidate{st.Uint64(), i, 1 + st.Intn(maxTick)})
				}
				i++
			}
		}
	}
	// Per-chassis and per-rack streams for the PDU excursions.
	chassis := make([]opsCandidate, 0, o.Racks*o.ChassisPerRack)
	racks := make([]opsCandidate, 0, o.Racks)
	for r := 0; r < o.Racks; r++ {
		for c := 0; c < o.ChassisPerRack; c++ {
			st := base.Split(fmt.Sprintf("dc/ops/r%02dc%02d", r, c))
			chassis = append(chassis, opsCandidate{st.Uint64(), r*o.ChassisPerRack + c, 1 + st.Intn(maxTick)})
		}
		st := base.Split(fmt.Sprintf("dc/ops/r%02d", r))
		racks = append(racks, opsCandidate{st.Uint64(), r, 1 + st.Intn(maxTick)})
	}

	var sched []OpsSched
	for _, c := range pickLowest(deaths, p.ChipDeaths) {
		sched = append(sched, OpsSched{Tick: c.tick, Kind: OpsChipDeath, Target: c.idx})
	}
	for _, c := range pickLowest(flaps, p.LinkFlaps) {
		sched = append(sched, OpsSched{Tick: c.tick, Kind: OpsLinkFlap, Target: c.idx, Duration: p.FlapTicks})
	}
	for _, c := range pickLowest(thermals, p.Thermals) {
		sched = append(sched, OpsSched{Tick: c.tick, Kind: OpsThermal, Target: c.idx, Duration: p.ThermalTicks})
	}
	for _, c := range pickLowest(chassis, p.Brownouts) {
		sched = append(sched, OpsSched{Tick: c.tick, Kind: OpsBrownout, Target: c.idx, Duration: p.BrownoutTicks})
	}
	for _, c := range pickLowest(racks, p.RackBrownouts) {
		sched = append(sched, OpsSched{Tick: c.tick, Kind: OpsRackBrownout, Target: c.idx, Duration: p.BrownoutTicks})
	}
	sort.Slice(sched, func(a, b int) bool {
		if sched[a].Tick != sched[b].Tick {
			return sched[a].Tick < sched[b].Tick
		}
		if sched[a].Kind != sched[b].Kind {
			return sched[a].Kind < sched[b].Kind
		}
		return sched[a].Target < sched[b].Target
	})
	return sched
}
