package dc

// The recovery half of the operational fault plane: a node-level
// ladder in the style of internal/sentinel's step-back ladder, driven
// once per tick before the budget pass.
//
//	telemetry loss → grace window → quarantine (breaker opens, tenants
//	evacuated, idle draw freed) → link returns → breaker probe →
//	re-admit (placement state rebuilt from the immutable intake
//	provision, budget ramp restarted at the idle floor)
//
// Chip death short-circuits the ladder: evacuation without re-entry.
// PDU brownouts and thermal excursions bypass it entirely — they act
// on the budget tree's effective caps and recover by restoring them,
// with the degraded-mode water-fill re-apportioning the reduced (and
// later the freed) capacity on the very next Apportion.

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/platform"
)

// opsNodeState is a chip's position on the recovery ladder.
type opsNodeState uint8

const (
	opsUp opsNodeState = iota
	opsQuarantined
	opsDead
)

// OpsEvent is one row of the emitted event/recovery timeline.
type OpsEvent struct {
	Tick int    `json:"tick"`
	Kind string `json:"kind"`
	// Node is the affected entity: a chip ("r00c01s03"), a chassis
	// ("r00c01") or a rack ("r00") for brownouts; empty for
	// tenant-scoped rows (migrate/shed), which name the tenant in
	// Detail.
	Node   string  `json:"node,omitempty"`
	Detail string  `json:"detail,omitempty"`
	CapW   float64 `json:"cap_w,omitempty"`
}

// OpsSummary is the availability summary of an ops-faulted run.
type OpsSummary struct {
	Profile string `json:"profile"`
	Seed    uint64 `json:"seed"`
	// Applied event counts (brownouts covers chassis and rack).
	ChipDeaths int `json:"chip_deaths"`
	LinkFlaps  int `json:"link_flaps"`
	Brownouts  int `json:"brownouts"`
	Thermals   int `json:"thermals"`
	// Ladder traffic.
	Quarantines int `json:"quarantines"`
	Readmits    int `json:"readmits"`
	// Tenant impact: evacuations (tenant-displacements, one tenant may
	// count several times), migrations (successful re-placements), shed
	// (displaced and never re-placed by the horizon), recovered
	// (distinct displaced tenants that were running again at the end).
	Evacuations int `json:"evacuations"`
	Migrations  int `json:"migrations"`
	Shed        int `json:"shed"`
	Recovered   int `json:"recovered"`
	// TenantTicksLost sums ticks displaced tenants spent queued;
	// MTTRTicks is the mean quarantine→re-admit repair time.
	TenantTicksLost int     `json:"tenant_ticks_lost"`
	MTTRTicks       float64 `json:"mttr_ticks"`
	// Safe is the run's verdict: every displaced tenant re-placed and
	// zero cap violations on the timeline.
	Safe bool `json:"safe"`
}

// Verdict renders the availability verdict in internal/lifetime's
// SAFE/UNSAFE wording.
func (s *OpsSummary) Verdict() string {
	if s.Safe {
		return "SAFE"
	}
	return "UNSAFE"
}

// opsPlane carries the fault schedule and recovery ladder through the
// operation sim. All state is indexed by topology order; the plane is
// driven single-threaded from the tick loop, so its draws and
// transitions are worker-count-invariant by construction.
type opsPlane struct {
	p     OpsProfile
	sched []OpsSched
	next  int

	placer *Placer
	tree   *BudgetTree
	provs  []*platform.Provision
	// idleW is each chip's provisioned idle floor — what re-admission
	// restores; 0 for intake-quarantined chips.
	idleW []float64
	// evacuate pulls chip i's tenants back into the queue, returning
	// how many were displaced (wired to the sim loop).
	evacuate func(chip, tick int) int

	state         []opsNodeState
	linkDownUntil []int
	linkDownSince []int
	wasDark       []bool
	thermalUntil  []int
	quarantinedAt []int
	chassisUntil  []int
	rackUntil     []int

	chassisPerRack int
	events         []OpsEvent
	sum            OpsSummary
	downTicksTotal int

	eventsC   *obs.Counter
	quarC     *obs.Counter
	readmitsC *obs.Counter
	migrC     *obs.Counter
}

// newOpsPlane draws the schedule and initializes the ladder. seed 0 is
// normalized to 1 (the injector convention everywhere else). An empty
// profile registers no series.
func newOpsPlane(p OpsProfile, seed uint64, o Options, placer *Placer, tree *BudgetTree,
	provs []*platform.Provision, evacuate func(chip, tick int) int, reg *obs.Registry) *opsPlane {
	if seed == 0 {
		seed = 1
	}
	if p.Empty() {
		reg = nil
	}
	n := len(placer.Chips)
	live := make([]bool, n)
	idleW := make([]float64, n)
	for i := range placer.Chips {
		live[i] = !placer.Chips[i].Quarantined
		idleW[i] = placer.Chips[i].IdleW
	}
	op := &opsPlane{
		p:              p,
		sched:          DrawOps(p, seed, o, live),
		placer:         placer,
		tree:           tree,
		provs:          provs,
		idleW:          idleW,
		evacuate:       evacuate,
		state:          make([]opsNodeState, n),
		linkDownUntil:  make([]int, n),
		linkDownSince:  make([]int, n),
		wasDark:        make([]bool, n),
		thermalUntil:   make([]int, n),
		quarantinedAt:  make([]int, n),
		chassisUntil:   make([]int, o.Racks*o.ChassisPerRack),
		rackUntil:      make([]int, o.Racks),
		chassisPerRack: o.ChassisPerRack,
		eventsC:        reg.Counter("dc_ops_events_total"),
		quarC:          reg.Counter("dc_ops_quarantines_total"),
		readmitsC:      reg.Counter("dc_ops_readmits_total"),
		migrC:          reg.Counter("dc_ops_migrations_total"),
	}
	op.sum.Profile = p.String()
	op.sum.Seed = seed
	return op
}

func (op *opsPlane) chassisID(ci int) string {
	return fmt.Sprintf("r%02dc%02d", ci/op.chassisPerRack, ci%op.chassisPerRack)
}

func (op *opsPlane) rackID(r int) string { return fmt.Sprintf("r%02d", r) }

func (op *opsPlane) emit(ev OpsEvent) {
	op.events = append(op.events, ev)
	op.eventsC.Inc()
}

// dark reports whether chip i's FSP telemetry is lost this tick while
// the node still runs (the grace-window phase): the sim holds the last
// good sample for the budget ramp instead.
func (op *opsPlane) dark(i, tick int) bool {
	return op.state[i] == opsUp && tick < op.linkDownUntil[i]
}

// downCount counts chips out of service this tick: dead, quarantined,
// or running dark.
func (op *opsPlane) downCount(tick int) int {
	n := 0
	for i := range op.state {
		if op.state[i] != opsUp || tick < op.linkDownUntil[i] {
			n++
		}
	}
	return n
}

// beginTick applies this tick's scheduled events, then walks the
// recovery ladder: excursions end, dark nodes cross the grace window
// into quarantine, recovered links earn a breaker probe and re-admit.
// Runs before the budget pass, so freed or reduced capacity is
// re-apportioned the same tick.
func (op *opsPlane) beginTick(tick int) {
	for op.next < len(op.sched) && op.sched[op.next].Tick <= tick {
		op.apply(op.sched[op.next], tick)
		op.next++
	}

	// Excursions end: effective caps restore, next Apportion re-fills.
	for i := range op.thermalUntil {
		if op.thermalUntil[i] != 0 && tick >= op.thermalUntil[i] {
			op.thermalUntil[i] = 0
			op.tree.ResetChipCap(i)
			op.emit(OpsEvent{Tick: tick, Kind: "thermal-end", Node: op.placer.Chips[i].ID})
		}
	}
	for ci := range op.chassisUntil {
		if op.chassisUntil[ci] != 0 && tick >= op.chassisUntil[ci] {
			op.chassisUntil[ci] = 0
			op.tree.ResetChassisCap(ci)
			op.emit(OpsEvent{Tick: tick, Kind: "brownout-end", Node: op.chassisID(ci)})
		}
	}
	for r := range op.rackUntil {
		if op.rackUntil[r] != 0 && tick >= op.rackUntil[r] {
			op.rackUntil[r] = 0
			op.tree.ResetRackCap(r)
			op.emit(OpsEvent{Tick: tick, Kind: "brownout-end", Node: op.rackID(r)})
		}
	}

	// The node ladder.
	for i := range op.state {
		down := tick < op.linkDownUntil[i]
		switch op.state[i] {
		case opsUp:
			if down && tick-op.linkDownSince[i] >= op.p.GraceTicks {
				n := op.evacuate(i, tick)
				op.placer.Reset(i, false)
				op.tree.ReAdmit(i, 0) // a zero floor and ramp: the chip holds no budget
				op.placer.Chips[i].Breaker.Failure()
				op.quarantinedAt[i] = tick
				op.state[i] = opsQuarantined
				op.sum.Quarantines++
				op.sum.Evacuations += n
				op.quarC.Inc()
				op.emit(OpsEvent{Tick: tick, Kind: "quarantine", Node: op.placer.Chips[i].ID,
					Detail: fmt.Sprintf("telemetry loss exceeded %d-tick grace, %d tenant(s) evacuated", op.p.GraceTicks, n)})
			} else if !down && op.wasDark[i] {
				op.emit(OpsEvent{Tick: tick, Kind: "link-up", Node: op.placer.Chips[i].ID,
					Detail: "recovered within grace"})
			}
		case opsQuarantined:
			if !down && op.placer.Chips[i].Breaker.Allow() {
				op.readmit(i, tick)
			}
		}
		op.wasDark[i] = op.dark(i, tick)
	}
}

// readmit rebuilds chip i from its immutable intake record after a
// successful breaker probe. A record that fails validation re-opens
// the breaker: the node stays quarantined and earns another probe
// after the open window.
func (op *opsPlane) readmit(i, tick int) {
	node := op.placer.Chips[i].ID
	var view platform.NodeView
	err := fmt.Errorf("dc: node %s has no intake provision", node)
	if op.provs[i] != nil {
		view, err = op.provs[i].View()
	}
	if err == nil && !view.Live {
		err = fmt.Errorf("dc: node %s has no live cores", node)
	}
	if err != nil {
		op.placer.Chips[i].Breaker.Failure()
		op.emit(OpsEvent{Tick: tick, Kind: "readmit-failed", Node: node, Detail: err.Error()})
		return
	}
	cores := make([]PlacerCore, len(view.Cores))
	for j, c := range view.Cores {
		cores[j] = PlacerCore{Label: c.Label, Quarantined: c.Quarantined, Slope: c.Slope, Intercept: c.Intercept}
	}
	op.placer.Rebuild(i, view.IdleW, view.SpanW, cores)
	// Soft start: the ramp restarts at the idle floor, so the
	// re-admitted chip earns budget back over the next few ticks.
	op.tree.ReAdmit(i, view.IdleW)
	op.placer.Chips[i].Breaker.Success()
	downFor := tick - op.quarantinedAt[i]
	op.state[i] = opsUp
	op.sum.Readmits++
	op.downTicksTotal += downFor
	op.readmitsC.Inc()
	op.emit(OpsEvent{Tick: tick, Kind: "readmit", Node: node,
		Detail: fmt.Sprintf("link recovered, rebuilt after %d tick(s) down", downFor)})
}

// apply fires one scheduled event.
func (op *opsPlane) apply(ev OpsSched, tick int) {
	switch ev.Kind {
	case OpsChipDeath:
		i := ev.Target
		if op.state[i] == opsDead {
			return
		}
		n := op.evacuate(i, tick)
		op.placer.Reset(i, true)
		op.tree.ReAdmit(i, 0) // a zero floor and ramp: the chip holds no budget
		op.placer.Chips[i].Breaker.Failure()
		op.state[i] = opsDead
		op.sum.ChipDeaths++
		op.sum.Evacuations += n
		op.emit(OpsEvent{Tick: tick, Kind: "chip-death", Node: op.placer.Chips[i].ID,
			Detail: fmt.Sprintf("%d tenant(s) evacuated", n)})
	case OpsLinkFlap:
		i := ev.Target
		if op.state[i] == opsDead {
			return
		}
		if tick >= op.linkDownUntil[i] {
			op.linkDownSince[i] = tick
		}
		if until := endTick(tick, ev.Duration); until > op.linkDownUntil[i] {
			op.linkDownUntil[i] = until
		}
		op.sum.LinkFlaps++
		op.emit(OpsEvent{Tick: tick, Kind: "link-down", Node: op.placer.Chips[i].ID,
			Detail: fmt.Sprintf("telemetry dark for %d tick(s)", ev.Duration)})
	case OpsThermal:
		i := ev.Target
		if op.state[i] != opsUp {
			return
		}
		capW := op.p.ThermalFrac * op.idleW[i]
		op.thermalUntil[i] = endTick(tick, ev.Duration)
		op.tree.ForceChipCap(i, capW)
		op.sum.Thermals++
		op.emit(OpsEvent{Tick: tick, Kind: "thermal-start", Node: op.placer.Chips[i].ID,
			CapW: capW, Detail: "allowance forced below idle floor"})
	case OpsBrownout:
		ci := ev.Target
		capW := op.p.BrownoutFrac * op.tree.chassisCap
		op.chassisUntil[ci] = endTick(tick, ev.Duration)
		op.tree.SetChassisCap(ci, capW)
		op.sum.Brownouts++
		op.emit(OpsEvent{Tick: tick, Kind: "brownout-start", Node: op.chassisID(ci), CapW: capW})
	case OpsRackBrownout:
		r := ev.Target
		capW := op.p.BrownoutFrac * op.tree.rackCap
		op.rackUntil[r] = endTick(tick, ev.Duration)
		op.tree.SetRackCap(r, capW)
		op.sum.Brownouts++
		op.emit(OpsEvent{Tick: tick, Kind: "brownout-start", Node: op.rackID(r), CapW: capW})
	}
}

// endTick is the first tick after an event of d ticks that starts at
// tick. A sum past math.MaxInt saturates there instead of wrapping
// negative, so such an event, like any that ends past the horizon,
// lasts the rest of the run.
func endTick(tick, d int) int {
	if d > math.MaxInt-tick {
		return math.MaxInt
	}
	return tick + d
}
