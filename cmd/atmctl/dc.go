package main

import (
	"flag"
	"fmt"
	"os"

	atm "repro"
	"repro/internal/report"
)

// cmdDC runs a rack-scale datacenter campaign: every node provisioned
// through the fleet (sharded across -workers, content-addressed cache
// that serves a rerun after a kill), then the hierarchical power
// budget and the Eq. 1 predictor-driven scheduler simulated over a
// seeded tenant stream.
// Stdout carries only the canonical view — the human table or the
// -json document — byte-identical across worker counts; provenance
// (cache hits, campaign name) goes to stderr. With -ops-fault-profile
// the sim additionally absorbs a seeded operational fault timeline
// (chip deaths, link flaps, brownouts, thermals) and reports the
// recovery/availability summary with a SAFE/UNSAFE verdict. A cap
// below its level's idle draw exits 1 after intake, before the first
// tick. Exit 3 when any chip ends intake-quarantined, any intake job
// failed, the ops verdict is UNSAFE (a displaced tenant was never
// re-placed), or a budget cap is violated, which means a broken
// invariant.
func cmdDC(args []string) error {
	fs := flag.NewFlagSet("dc", flag.ContinueOnError)
	racks := fs.Int("racks", 2, "rack count")
	chassis := fs.Int("chassis", 4, "chassis per rack")
	chipsPer := fs.Int("chips-per-chassis", 8, "chips (single-chip nodes) per chassis")
	workers := fs.Int("workers", 4, "intake worker pool bound (output is identical for every value)")
	seed := fs.Uint64("seed", 1, "campaign seed: tenant stream and per-node trial seeds")
	siliconStart := fs.Uint64("silicon-start", 1, "first node's silicon seed (node i uses silicon-start+i)")
	tenants := fs.Int("tenants", 0, "tenant workload count (0 = 2 per chip)")
	ticks := fs.Int("ticks", 0, "operation horizon in ticks (0 = 32)")
	rollback := fs.Int("rollback", 0, "intake deployment safety steps below the stress-test limit")
	rackCap := fs.Float64("rack-cap", 0, "rack PDU cap in watts (0 = derive from the provisioned envelope; below the rack's idle draw is an error)")
	chassisCap := fs.Float64("chassis-cap", 0, "chassis cap in watts (0 = derive; below a chassis's idle draw is an error)")
	chipCap := fs.Float64("chip-cap", 0, "chip cap in watts (0 = derive; below a chip's idle draw is an error)")
	ki := fs.Float64("ki", 0, "per-chip integral gain of the budget controller (0 = 0.5)")
	faultProfile := fs.String("fault-profile", "",
		"arm this fault profile on every node (per-node seeds are independent rng splits)")
	faultSeed := fs.Uint64("fault-seed", 1, "base fault seed the per-node streams split from")
	opsProfile := fs.String("ops-fault-profile", "",
		"operational fault timeline for the post-intake sim: a preset (ops-storm, chip-death, flaky-links, brownout, rack-brownout, thermal, none) or key=value spec")
	opsSeed := fs.Uint64("ops-fault-seed", 1, "seed the per-entity operational fault streams split from")
	cacheDir := fs.String("cache-dir", "", "content-addressed provision cache directory")
	jsonOut := fs.Bool("json", false, "emit the canonical campaign result as JSON instead of tables")
	attach, flush := obsFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *workers < 1 {
		return badFlag(fs, "-workers %d: want at least one worker", *workers)
	}
	opts := atm.DCOptions{
		Racks:           *racks,
		ChassisPerRack:  *chassis,
		ChipsPerChassis: *chipsPer,
		Workers:         *workers,
		Seed:            *seed,
		SiliconStart:    *siliconStart,
		Tenants:         *tenants,
		Ticks:           *ticks,
		Rollback:        *rollback,
		RackCapW:        *rackCap,
		ChassisCapW:     *chassisCap,
		ChipCapW:        *chipCap,
		KI:              *ki,
		FaultProfile:    *faultProfile,
		FaultSeed:       *faultSeed,
		OpsFaultProfile: *opsProfile,
		OpsFaultSeed:    *opsSeed,
		CacheDir:        *cacheDir,
	}
	if err := opts.Validate(); err != nil {
		return badFlag(fs, "%v", err)
	}

	opts.Obs, opts.Trace = attach(nil)
	res, err := atm.RunDatacenter(opts)
	if err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	// Provenance to stderr; stdout stays canonical.
	fmt.Fprintf(os.Stderr, "dc: campaign %s: %d node(s), %d cached, %d failed\n",
		res.CampaignHash[:12], len(res.Chips), res.CachedJobs, len(res.FailedJobs))

	if *jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if err := renderDC(res); err != nil {
		return err
	}

	quarantined := res.QuarantinedChips()
	switch {
	case len(res.FailedJobs) > 0 || quarantined > 0:
		return partialf("dc: %d chip(s) quarantined (%d intake failure(s)); %d budget violation(s)",
			quarantined, len(res.FailedJobs), res.Budget.Violations)
	case res.Ops != nil && !res.Ops.Safe:
		return partialf("dc: ops verdict UNSAFE — %d tenant(s) shed after displacement, %d budget violation(s)",
			res.Ops.Shed, res.Budget.Violations)
	case res.Budget.Violations > 0:
		return partialf("dc: %d budget violation(s) across %d tick(s)",
			res.Budget.Violations, res.Topology.Ticks)
	}
	return nil
}

// renderDC prints the per-node intake table and the budget/placement
// summary.
func renderDC(res *atm.DCResult) error {
	t := &report.Table{
		Title: fmt.Sprintf("Datacenter campaign: %d×%d×%d = %d chips, %d tenants over %d ticks",
			res.Topology.Racks, res.Topology.ChassisPerRack, res.Topology.ChipsPerChassis,
			res.Topology.Chips, res.Topology.Tenants, res.Topology.Ticks),
		Header: []string{"node", "silicon", "idle (W)", "loaded (W)", "speed diff (MHz)", "status"},
	}
	for _, c := range res.Chips {
		status := "ok"
		switch {
		case c.Err != "":
			status = "quarantined: " + c.Err
		case c.Quarantined:
			status = "quarantined"
		case c.QuarantinedCores > 0:
			status = fmt.Sprintf("%d core(s) quarantined", c.QuarantinedCores)
		}
		t.AddRow(c.Node, fmt.Sprintf("%d", c.SiliconSeed),
			report.F(c.IdleW, 1), report.F(c.LoadedW, 1),
			report.F(c.SpeedDiffMHz, 0), status)
	}
	t.Note = fmt.Sprintf(
		"caps rack %.0f W / chassis %.0f W / chip %.0f W (ki %.2f); peaks %.1f / %.1f / %.1f W; "+
			"%d violation(s), %d throttle(s), %d resume(s)\n"+
			"placement: %d placed, %d completed, %d unplaced, %d deferral(s), %d breaker rejection(s)",
		res.Budget.RackCapW, res.Budget.ChassisCapW, res.Budget.ChipCapW, res.Budget.KI,
		res.Budget.PeakRackW, res.Budget.PeakChassisW, res.Budget.PeakChipW,
		res.Budget.Violations, res.Budget.ThrottleEvents, res.Budget.ResumeEvents,
		res.Placement.Placed, res.Placement.Completed, res.Placement.Unplaced,
		res.Placement.Deferrals, res.Placement.BreakerRejected)
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	if res.Ops == nil {
		return nil
	}
	return renderDCOps(res)
}

// renderDCOps prints the operational event/recovery timeline and the
// availability summary with its SAFE/UNSAFE verdict.
func renderDCOps(res *atm.DCResult) error {
	ops := res.Ops
	t := &report.Table{
		Title:  fmt.Sprintf("Operational faults: profile %s (seed %d)", ops.Profile, ops.Seed),
		Header: []string{"tick", "event", "target", "detail"},
	}
	for _, ev := range res.Events {
		detail := ev.Detail
		if ev.CapW != 0 {
			detail = fmt.Sprintf("cap %.1f W", ev.CapW)
			if ev.Detail != "" {
				detail += "; " + ev.Detail
			}
		}
		t.AddRow(fmt.Sprintf("%d", ev.Tick), ev.Kind, ev.Node, detail)
	}
	t.Note = fmt.Sprintf(
		"events: %d chip death(s), %d link flap(s), %d brownout(s), %d thermal(s); "+
			"ladder: %d quarantine(s), %d readmit(s), MTTR %.1f tick(s)\n"+
			"tenants: %d evacuation(s), %d migration(s), %d recovered, %d shed, %d tenant-tick(s) lost\n"+
			"verdict: %s",
		ops.ChipDeaths, ops.LinkFlaps, ops.Brownouts, ops.Thermals,
		ops.Quarantines, ops.Readmits, ops.MTTRTicks,
		ops.Evacuations, ops.Migrations, ops.Recovered, ops.Shed, ops.TenantTicksLost,
		ops.Verdict())
	return t.Render(os.Stdout)
}
