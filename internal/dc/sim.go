package dc

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/fleet"
	"repro/internal/rng"
	"repro/internal/workload"
)

// The operation phase: a single-threaded deterministic tick loop over
// the intaken fleet. Per tick:
//
//	completions → arrivals → Apportion → placement → throttle/resume
//	→ measure → Ramp → record
//
// Placement admits against the water-filled grant; throttling
// (background tenants first, most recent placement first) enforces
// demand ≤ Allowance per chip, this tick's grant gated by the ramp the
// previous ticks left, so a freshly granted chip ramps up over a few
// ticks — the soft start. A throttled tenant keeps its core but draws
// no span power and makes no progress.

// tenant is one workload's sim state.
type tenant struct {
	id       int
	wl       workload.Profile
	critical bool
	arrival  int
	duration int

	chip, core int // -1 while unplaced
	coreLabel  string
	nodeID     string
	predMHz    float64
	start, end int
	remaining  int

	placed, completed, throttled bool
	throttledTicks               int

	// Operational-fault bookkeeping: a tenant evacuated off a dying or
	// quarantined chip at tick displacedAt re-enters the queue with
	// pendingMig set until the placer finds it a new home (a migration)
	// or the horizon ends (shed). downtimeTicks counts the
	// queued-while-displaced ticks: each displacement adds the ticks
	// from displacedAt to the re-placement or the horizon.
	pendingMig    bool
	everDisplaced bool
	shed          bool
	displacedAt   int
	migrations    int
	downtimeTicks int
}

// makeTenants draws the arrival stream from its own labelled split of
// the campaign seed: realistic workloads, arrivals over the first half
// of the horizon, durations up to a quarter of it.
func makeTenants(o Options) []*tenant {
	src := rng.New(o.Seed).Split("dc/tenants")
	pool := workload.Realistic()
	arrivalSpan := o.Ticks / 2
	if arrivalSpan < 1 {
		arrivalSpan = 1
	}
	durSpan := o.Ticks / 4
	if durSpan < 1 {
		durSpan = 1
	}
	out := make([]*tenant, o.Tenants)
	for i := range out {
		wl := pool[src.Intn(len(pool))]
		out[i] = &tenant{
			id:       i,
			wl:       wl,
			critical: wl.Role == workload.RoleCritical,
			arrival:  src.Intn(arrivalSpan),
			duration: 1 + src.Intn(durSpan),
			chip:     -1,
			core:     -1,
		}
		out[i].remaining = out[i].duration
	}
	return out
}

// simulate runs the operation phase over the merged intake results and
// assembles the canonical Result. ops is the parsed operational fault
// profile; an empty one schedules nothing, so every run takes the same
// path. A cap below its level's idle draw fails before the first tick.
func simulate(o Options, ops OpsProfile, campaign *fleet.Campaign, fres *fleet.CampaignResult) (*Result, error) {
	// Every node's breaker runs on the sim's logical tick clock, so
	// quarantine windows are measured in ticks.
	clock := new(int64)
	chips, sums, provs := intakeChips(o, fres, clock, int64(ops.ReAdmitTicks))
	rackCap, chassisCap, chipCap, err := autoCaps(o, chips)
	if err != nil {
		return nil, err
	}
	// The placement pass's same-tick skip needs every span non-negative.
	// A re-admission rebuilds a chip from the same provision record, so
	// checking the intake covers the whole run.
	for i := range chips {
		if !chips[i].Quarantined && !(chips[i].SpanW >= 0) {
			return nil, fmt.Errorf("dc: node %s per-core span is %g W, want at least 0; its loaded draw is below idle",
				chips[i].ID, chips[i].SpanW)
		}
	}

	nChips := len(chips)
	idle := make([]float64, nChips)
	for i := range chips {
		if !chips[i].Quarantined {
			idle[i] = chips[i].IdleW
		}
	}
	tree := NewBudgetTree(o.Racks, o.ChassisPerRack, o.ChipsPerChassis, rackCap, chassisCap, chipCap, idle)
	placer := NewPlacer(chips)
	tenants := makeTenants(o)
	// Arrival order, ID order within a tick: each tick's arrivals are
	// the next run of this list.
	arrivals := slices.Clone(tenants)
	slices.SortStableFunc(arrivals, func(a, b *tenant) int { return cmp.Compare(a.arrival, b.arrival) })
	nextArrival := 0
	pass := newPlacePass(nChips)

	// Obs handles resolved once, outside the loop.
	var (
		placements = o.Obs.Counter("dc_placements_total")
		deferrals  = o.Obs.Counter("dc_deferrals_total")
		throttles  = o.Obs.Counter("dc_throttle_events_total")
		resumes    = o.Obs.Counter("dc_resume_events_total")
		violationC = o.Obs.Counter("dc_budget_violations_total")
		rackG      = o.Obs.Gauge("dc_rack_power_watts_max")
		chassisG   = o.Obs.Gauge("dc_chassis_power_watts_max")
		chipG      = o.Obs.Gauge("dc_chip_power_watts_max")
		queuedG    = o.Obs.Gauge("dc_tenants_queued")
		runningG   = o.Obs.Gauge("dc_tenants_running")
	)

	request := make([]float64, nChips)
	grants := make([]float64, nChips)
	allow := make([]float64, nChips)
	measured := make([]float64, nChips)
	telemetry := make([]float64, nChips)
	// perChip holds each chip's running tenants in placement order:
	// the completion walk, the throttle scan and the tick row read it.
	perChip := make([][]*tenant, nChips)

	var queue []*tenant

	// The ops plane: its evacuation callback pulls a dying or
	// quarantined chip's tenants back into the queue and empties the
	// chip's list.
	evacuate := func(chip, tick int) int {
		list := perChip[chip]
		for _, t := range list {
			t.chip, t.core = -1, -1
			t.throttled = false
			t.pendingMig = true
			t.everDisplaced = true
			t.displacedAt = tick
			queue = enqueue(queue, t)
		}
		n := len(list)
		for k := range list {
			list[k] = nil // do not retain evicted tenants in the backing array
		}
		perChip[chip] = list[:0]
		return n
	}
	opsP := newOpsPlane(ops, o.OpsFaultSeed, o, placer, tree, provs, evacuate, o.Obs)

	res := &Result{
		Topology: Topology{
			Racks:           o.Racks,
			ChassisPerRack:  o.ChassisPerRack,
			ChipsPerChassis: o.ChipsPerChassis,
			Chips:           nChips,
			Tenants:         o.Tenants,
			Ticks:           o.Ticks,
			Seed:            o.Seed,
			SiliconStart:    o.SiliconStart,
			FaultProfile:    o.FaultProfile,
		},
		CampaignHash: campaign.Hash(),
		Chips:        sums,
		Tenants:      make([]TenantOutcome, 0, len(tenants)),
		Timeline:     make([]TickRow, 0, o.Ticks),
		FailedJobs:   fres.Failed(),
		CachedJobs:   fres.CachedCount(),
		Budget: BudgetSummary{
			RackCapW:    rackCap,
			ChassisCapW: chassisCap,
			ChipCapW:    chipCap,
		},
	}

	for tick := 0; tick < o.Ticks; tick++ {
		*clock = int64(tick)

		// Completions: un-throttled tenants burn one tick of work.
		// Release touches only its own chip's demand, and each list
		// keeps placement order, so each chip releases in placement
		// order whatever order the chips are walked in.
		for i := range perChip {
			perChip[i] = complete(perChip[i], func(t *tenant) {
				t.completed = true
				t.end = tick
				placer.Release(t.chip, t.core, t.wl.CdynRel)
				res.Placement.Completed++
			})
		}

		// Operational events and recoveries fire before the budget
		// pass, so freed or reduced capacity is re-apportioned this
		// tick. Evacuated tenants are already back in the queue.
		opsP.beginTick(tick)

		// Arrivals join the queue at their place in queueCmp order;
		// evacuees joined it the same way in beginTick.
		for ; nextArrival < len(arrivals) && arrivals[nextArrival].arrival == tick; nextArrival++ {
			queue = enqueue(queue, arrivals[nextArrival])
		}

		// Budget: requests follow demand plus headroom for one more
		// core, so grants track where tenants actually run — a chip
		// asks for what it draws, not its whole envelope. Under
		// contention the water-fill equalizes shares below a heavy
		// chip's demand and the throttle path engages.
		for i := range request {
			if chips[i].Quarantined {
				request[i] = 0
				continue
			}
			request[i] = placer.Demand(i)
			if placer.FreeCores(i) > 0 {
				request[i] += chips[i].SpanW
			}
		}
		tree.Apportion(request)
		for i := range allow {
			grants[i] = tree.Grant(i)
			allow[i] = tree.Allowance(i)
		}

		// Placement from the head of the queue. Admission is against
		// the water-filled grant — what the hierarchy says the chip
		// may draw — while the throttle below enforces the ramped
		// allowance, so a fresh placement sheds for a tick or two
		// until the ramp climbs to the grant (the soft start), then
		// resumes. The pass defers, unscored, a tenant whose failure
		// an earlier one already decided, and carries a whole pass's
		// failures into the next tick while nothing a survivor could
		// use has changed (see placePass).
		if pass.carry(placer, grants, len(queue)) {
			deferrals.Add(int64(len(queue)))
			res.Placement.Deferrals += len(queue)
		} else {
			still := queue[:0]
			for _, t := range queue {
				ci, cj, pred, ok := pass.place(placer, t.wl.CdynRel, grants)
				if !ok {
					deferrals.Inc()
					res.Placement.Deferrals++
					still = append(still, t)
					continue
				}
				t.chip, t.core = ci, cj
				t.coreLabel = placer.Chips[ci].Cores[cj].Label
				t.nodeID = placer.Chips[ci].ID
				t.predMHz = pred
				t.start = tick
				t.placed = true
				perChip[ci] = append(perChip[ci], t)
				placements.Inc()
				res.Placement.Placed++
				if t.pendingMig {
					t.pendingMig = false
					t.downtimeTicks += tick - t.displacedAt
					opsP.sum.TenantTicksLost += tick - t.displacedAt
					t.migrations++
					opsP.sum.Migrations++
					opsP.migrC.Inc()
					opsP.emit(OpsEvent{Tick: tick, Kind: "migrate", Node: t.nodeID,
						Detail: fmt.Sprintf("tenant %d re-placed on %s", t.id, t.coreLabel)})
				}
			}
			queue = still
			pass.end(placer, grants, len(queue))
		}

		// Throttle/resume against the allowance: resume in placement
		// order (critical tenants were queued first), then shed from
		// the tail — background before critical — until demand fits.
		for i := range chips {
			for _, t := range perChip[i] {
				if t.throttled && placer.Demand(i)+t.wl.CdynRel*chips[i].SpanW <= allow[i]+budgetEps {
					t.throttled = false
					placer.AddDemand(i, t.wl.CdynRel*chips[i].SpanW)
					resumes.Inc()
					res.Budget.ResumeEvents++
				}
			}
			for pass := 0; pass < 2 && placer.Demand(i) > allow[i]+budgetEps; pass++ {
				critPass := pass == 1
				list := perChip[i]
				for k := len(list) - 1; k >= 0 && placer.Demand(i) > allow[i]+budgetEps; k-- {
					t := list[k]
					if t.throttled || t.critical != critPass {
						continue
					}
					t.throttled = true
					placer.AddDemand(i, -t.wl.CdynRel*chips[i].SpanW)
					throttles.Inc()
					res.Budget.ThrottleEvents++
				}
			}
		}

		// Measure and step the ramp. A node running dark (FSP link
		// down, inside the grace window) leaves its telemetry at the
		// last good sample for the ramp; the check below always reads
		// the actual draw.
		for i := range measured {
			measured[i] = placer.Demand(i)
			if !opsP.dark(i, tick) {
				telemetry[i] = measured[i]
			}
		}
		rampStep(tree, telemetry, opsP, tick)

		// Record the tick: level maxima and cap violations.
		row := TickRow{Tick: tick, Queued: len(queue), Down: opsP.downCount(tick)}
		for _, list := range perChip {
			row.Running += len(list)
			for _, t := range list {
				if t.throttled {
					t.throttledTicks++
					row.Throttled++
				}
			}
		}
		row.RackMaxW, row.ChassisMaxW, row.ChipMaxW, row.Violations = tree.Check(measured)
		res.Budget.Violations += row.Violations
		violationC.Add(int64(row.Violations))
		if row.RackMaxW > res.Budget.PeakRackW {
			res.Budget.PeakRackW = row.RackMaxW
		}
		if row.ChassisMaxW > res.Budget.PeakChassisW {
			res.Budget.PeakChassisW = row.ChassisMaxW
		}
		if row.ChipMaxW > res.Budget.PeakChipW {
			res.Budget.PeakChipW = row.ChipMaxW
		}
		rackG.Set(row.RackMaxW)
		chassisG.Set(row.ChassisMaxW)
		chipG.Set(row.ChipMaxW)
		queuedG.Set(float64(row.Queued))
		runningG.Set(float64(row.Running))
		res.Timeline = append(res.Timeline, row)
	}

	// Horizon accounting for the ops plane: displaced tenants the
	// placer never found a new home for are shed; every other displaced
	// tenant recovered.
	for _, t := range tenants {
		if t.pendingMig {
			t.downtimeTicks += o.Ticks - t.displacedAt
			opsP.sum.TenantTicksLost += o.Ticks - t.displacedAt
			t.shed = true
			opsP.sum.Shed++
			opsP.emit(OpsEvent{Tick: o.Ticks, Kind: "shed",
				Detail: fmt.Sprintf("tenant %d displaced and never re-placed", t.id)})
		} else if t.everDisplaced {
			opsP.sum.Recovered++
		}
	}

	// Outcomes in tenant order; spans on the tick axis after the loop
	// so the trace is deterministic.
	for _, t := range tenants {
		out := TenantOutcome{
			ID:             t.id,
			Workload:       t.wl.Name,
			Critical:       t.critical,
			Arrival:        t.arrival,
			PredFreqMHz:    t.predMHz,
			ThrottledTicks: t.throttledTicks,
			Placed:         t.placed,
			Completed:      t.completed,
			Migrations:     t.migrations,
			DowntimeTicks:  t.downtimeTicks,
			Shed:           t.shed,
		}
		if t.placed {
			out.Node = t.nodeID
			out.Core = t.coreLabel
			out.Start = t.start
			out.End = t.end
			if !t.completed {
				out.End = o.Ticks
			}
			if o.Trace != nil {
				o.Trace.Complete("dc", t.wl.Name, "dc/"+out.Node,
					int64(out.Start), int64(out.End-out.Start+1))
			}
		} else {
			res.Placement.Unplaced++
		}
		res.Tenants = append(res.Tenants, out)
	}
	for i := range chips {
		res.Placement.BreakerRejected += chips[i].Breaker.Rejected()
	}
	// Only a profile that schedules events reports on them.
	if !ops.Empty() {
		opsP.sum.Safe = opsP.sum.Shed == 0 && res.Budget.Violations == 0
		if opsP.sum.Readmits > 0 {
			opsP.sum.MTTRTicks = float64(opsP.downTicksTotal) / float64(opsP.sum.Readmits)
		}
		res.Ops = &opsP.sum
		res.Events = opsP.events
	}
	return res, nil
}

// rampStep is the tick loop's ramp step. It is a variable so that a
// test can read the budget tree around every step; ops and tick tell
// it which chips run dark.
var rampStep = func(tree *BudgetTree, telemetry []float64, _ *opsPlane, _ int) { tree.Ramp(telemetry) }

// queueCmp orders the queue: critical tenants ahead of the rest, ID
// order within a class. IDs are unique, so the order is total.
func queueCmp(a, b *tenant) int {
	if a.critical != b.critical {
		if a.critical {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

// enqueue inserts t into a queue sorted by queueCmp at its binary-
// searched place, so the queue stays sorted without a re-sort. The
// placement pass keeps the survivors' order, so the queue is sorted
// whenever a tenant joins it.
func enqueue(queue []*tenant, t *tenant) []*tenant {
	i, _ := slices.BinarySearchFunc(queue, t, queueCmp)
	return slices.Insert(queue, i, t)
}

// complete burns one tick of work for each un-throttled tenant of a
// chip's list, hands each tenant that finishes to done, and returns
// the rest in order. It filters in place and nils the vacated tail, so
// the backing array does not keep a finished *tenant reachable.
func complete(list []*tenant, done func(*tenant)) []*tenant {
	live := list[:0]
	for _, t := range list {
		if !t.throttled {
			t.remaining--
		}
		if t.remaining == 0 {
			done(t)
			continue
		}
		live = append(live, t)
	}
	clear(list[len(live):])
	return live
}
