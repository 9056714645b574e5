package dc

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// opsOpts is the ops-plane test campaign: the small topology under a
// longer horizon with enough tenants that displaced work has somewhere
// to land. Every assertion below is deterministic in (seed, ops seed).
func opsOpts(profile string) Options {
	o := smallOpts()
	o.Ticks = 32
	o.Tenants = 16
	o.Seed = 1
	o.OpsFaultProfile = profile
	o.OpsFaultSeed = 1
	return o
}

func opsRun(t *testing.T, profile string) *Result {
	t.Helper()
	res, err := Run(opsOpts(profile))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == nil {
		t.Fatalf("profile %q: result carries no ops summary", profile)
	}
	return res
}

func eventTicks(res *Result, kind string) []int {
	var ticks []int
	for _, ev := range res.Events {
		if ev.Kind == kind {
			ticks = append(ticks, ev.Tick)
		}
	}
	return ticks
}

// TestOpsNoneMatchesPlain: -ops-fault-profile none must be
// byte-identical to a run with the plane off — the PR 9 golden parity
// the ops plane is built around.
func TestOpsNoneMatchesPlain(t *testing.T) {
	plain, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	o := smallOpts()
	o.OpsFaultProfile = "none"
	o.OpsFaultSeed = 99 // must be inert when the profile is empty
	none, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if none.Ops != nil || len(none.Events) != 0 {
		t.Fatal("empty ops profile still produced an ops summary or events")
	}
	if !bytes.Equal(canon(t, plain), canon(t, none)) {
		t.Fatal("ops-fault-profile none diverged from a plain run")
	}
}

// TestOpsChipDeathMigratesDisplaced: a chip dying mid-sim evacuates
// its tenants and the scheduler re-places every one of them — nothing
// shed, no cap violations, SAFE verdict.
func TestOpsChipDeathMigratesDisplaced(t *testing.T) {
	res := opsRun(t, "chip-death")
	ops := res.Ops
	if ops.ChipDeaths != 1 {
		t.Fatalf("applied %d chip deaths, want 1", ops.ChipDeaths)
	}
	if ops.Evacuations != 1 || ops.Migrations != 1 || ops.Shed != 0 || ops.Recovered != 1 {
		t.Fatalf("tenant fate = evac %d / mig %d / shed %d / recovered %d, want 1/1/0/1",
			ops.Evacuations, ops.Migrations, ops.Shed, ops.Recovered)
	}
	if res.Budget.Violations != 0 {
		t.Fatalf("%d cap violations during recovery", res.Budget.Violations)
	}
	if !ops.Safe || ops.Verdict() != "SAFE" {
		t.Fatalf("verdict = %s, want SAFE", ops.Verdict())
	}
	// Per-tenant accounting mirrors the summary.
	migSum, displaced := 0, 0
	for _, tn := range res.Tenants {
		migSum += tn.Migrations
		if tn.Migrations > 0 || tn.Shed {
			displaced++
			if tn.Node == "" {
				t.Fatalf("displaced tenant %d lost its node attribution", tn.ID)
			}
		}
	}
	if migSum != ops.Migrations {
		t.Fatalf("tenant migration sum %d != summary %d", migSum, ops.Migrations)
	}
	if displaced != ops.Recovered+ops.Shed {
		t.Fatalf("%d displaced tenants, summary accounts for %d", displaced, ops.Recovered+ops.Shed)
	}
	// The timeline shows the death before the re-placement.
	deaths, migs := eventTicks(res, "chip-death"), eventTicks(res, "migrate")
	if len(deaths) != 1 || len(migs) != 1 {
		t.Fatalf("events: %d chip-death, %d migrate, want 1 each", len(deaths), len(migs))
	}
	if migs[0] < deaths[0] {
		t.Fatalf("migrate at tick %d precedes chip-death at tick %d", migs[0], deaths[0])
	}
}

// TestOpsFlakyLinksQuarantineLadder: link flaps outlasting the grace
// window walk the full ladder — link-down, quarantine, re-admit — and
// the MTTR is the observed repair time, not zero.
func TestOpsFlakyLinksQuarantineLadder(t *testing.T) {
	res := opsRun(t, "flaky-links")
	ops := res.Ops
	if ops.LinkFlaps != 2 {
		t.Fatalf("applied %d link flaps, want 2", ops.LinkFlaps)
	}
	if ops.Quarantines != 2 || ops.Readmits != 2 {
		t.Fatalf("ladder = %d quarantine(s) / %d readmit(s), want 2/2", ops.Quarantines, ops.Readmits)
	}
	if ops.MTTRTicks <= 0 {
		t.Fatalf("MTTR = %v ticks, want > 0", ops.MTTRTicks)
	}
	if ops.Shed != 0 || !ops.Safe || res.Budget.Violations != 0 {
		t.Fatalf("ladder run not clean: shed %d, safe %v, violations %d",
			ops.Shed, ops.Safe, res.Budget.Violations)
	}
	if ops.Evacuations == 0 || ops.Migrations != ops.Evacuations {
		t.Fatalf("evacuations %d / migrations %d: every displaced tenant must re-place",
			ops.Evacuations, ops.Migrations)
	}
	// Per node: the quarantine sits between its link-down and its
	// readmit on the tick axis.
	for _, q := range res.Events {
		if q.Kind != "quarantine" {
			continue
		}
		sawDown, sawReadmit := false, false
		for _, ev := range res.Events {
			if ev.Node != q.Node {
				continue
			}
			if ev.Kind == "link-down" && ev.Tick <= q.Tick {
				sawDown = true
			}
			if ev.Kind == "readmit" && ev.Tick > q.Tick {
				sawReadmit = true
			}
		}
		if !sawDown || !sawReadmit {
			t.Fatalf("node %s quarantined at tick %d without a preceding link-down (%v) or a later readmit (%v)",
				q.Node, q.Tick, sawDown, sawReadmit)
		}
	}
	// The availability column reflects the dark/quarantined window.
	sawDown := false
	for _, row := range res.Timeline {
		if row.Down > 0 {
			sawDown = true
			break
		}
	}
	if !sawDown {
		t.Fatal("timeline never reported a chip out of service")
	}
}

// TestOpsBrownoutDegradedRebalance: a chassis PDU brownout drops the
// effective cap mid-run; the water-fill re-apportions the survivors
// under the reduced budget and restores them afterwards with zero cap
// violations on the whole timeline.
func TestOpsBrownoutDegradedRebalance(t *testing.T) {
	res := opsRun(t, "brownout")
	ops := res.Ops
	if ops.Brownouts != 1 {
		t.Fatalf("applied %d brownouts, want 1", ops.Brownouts)
	}
	if res.Budget.Violations != 0 || !ops.Safe {
		t.Fatalf("degraded water-fill violated caps: %d violation(s), safe %v",
			res.Budget.Violations, ops.Safe)
	}
	starts, ends := eventTicks(res, "brownout-start"), eventTicks(res, "brownout-end")
	if len(starts) != 1 || len(ends) != 1 {
		t.Fatalf("events: %d brownout-start, %d brownout-end, want 1 each", len(starts), len(ends))
	}
	if ends[0] <= starts[0] {
		t.Fatalf("brownout ends at tick %d, starts at tick %d", ends[0], starts[0])
	}
	for _, ev := range res.Events {
		if ev.Kind == "brownout-start" {
			if ev.CapW <= 0 || ev.CapW >= res.Budget.ChassisCapW {
				t.Fatalf("brownout cap %v W not inside (0, chassis cap %v W)", ev.CapW, res.Budget.ChassisCapW)
			}
		}
	}
}

// TestOpsThermalForcedBelowIdle: a thermal excursion forces a chip's
// ceiling below its idle floor — the one sanctioned carve-out of the
// cap invariant — and the run still records zero violations.
func TestOpsThermalForcedBelowIdle(t *testing.T) {
	res := opsRun(t, "thermal")
	ops := res.Ops
	if ops.Thermals != 1 {
		t.Fatalf("applied %d thermals, want 1", ops.Thermals)
	}
	if res.Budget.Violations != 0 || !ops.Safe {
		t.Fatalf("thermal carve-out misread as violation: %d violation(s), safe %v",
			res.Budget.Violations, ops.Safe)
	}
	idleOf := make(map[string]float64, len(res.Chips))
	for _, c := range res.Chips {
		idleOf[c.Node] = c.IdleW
	}
	seen := false
	for _, ev := range res.Events {
		if ev.Kind != "thermal-start" {
			continue
		}
		seen = true
		idle, ok := idleOf[ev.Node]
		if !ok {
			t.Fatalf("thermal-start names unknown node %q", ev.Node)
		}
		if ev.CapW <= 0 || ev.CapW >= idle {
			t.Fatalf("thermal cap %v W on %s not below its idle floor %v W", ev.CapW, ev.Node, idle)
		}
	}
	if !seen {
		t.Fatal("no thermal-start event emitted")
	}
}

// TestOpsMaxDurationLastsTheRun: an event of math.MaxInt ticks, whose
// end tick tick+d would wrap negative, behaves exactly like one that
// ends at the horizon — for every event class with a duration. Only
// the configured duration in the profile, the campaign hash and the
// link-down detail may differ.
func TestOpsMaxDurationLastsTheRun(t *testing.T) {
	for _, tc := range []struct{ name, spec, end string }{
		{"link flap", "flaky-links,flap-ticks=%d", "link-up"},
		{"thermal", "thermal,thermal-ticks=%d", "thermal-end"},
		{"chassis brownout", "brownout,brownout-ticks=%d", "brownout-end"},
		{"rack brownout", "rack-brownout,brownout-ticks=%d", "brownout-end"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(d int) []byte {
				res := opsRun(t, fmt.Sprintf(tc.spec, d))
				if len(res.Events) == 0 || len(eventTicks(res, tc.end)) != 0 {
					t.Fatalf("duration %d: want events and no %s, got %+v", d, tc.end, res.Events)
				}
				res.CampaignHash, res.Ops.Profile = "", ""
				for i := range res.Events {
					if res.Events[i].Kind == "link-down" {
						res.Events[i].Detail = ""
					}
				}
				return canon(t, res)
			}
			horizon := run(opsOpts("").Ticks)
			if got := run(math.MaxInt); !bytes.Equal(got, horizon) {
				t.Fatalf("a math.MaxInt duration diverged from one ending at the horizon:\n%s\n%s", got, horizon)
			}
		})
	}
	res := opsRun(t, fmt.Sprintf("flaky-links,flap-ticks=%d", math.MaxInt))
	if res.Ops.Quarantines == 0 {
		t.Fatal("a link dark for math.MaxInt ticks never quarantined its node")
	}
}

// TestOpsShedUnrecoveredTenants: kill the whole (tiny) fleet and the
// displaced tenants have nowhere to go — they are shed at the horizon,
// the verdict flips UNSAFE, and the per-tenant records agree.
func TestOpsShedUnrecoveredTenants(t *testing.T) {
	o := Options{
		Racks: 1, ChassisPerRack: 1, ChipsPerChassis: 2,
		Ticks: 10, Tenants: 12, Seed: 1,
		OpsFaultProfile: "chip-deaths=2", OpsFaultSeed: 1,
	}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	ops := res.Ops
	if ops == nil || ops.ChipDeaths != 2 {
		t.Fatalf("ops summary %+v, want 2 applied chip deaths", ops)
	}
	if ops.Shed == 0 {
		t.Fatal("whole fleet dead but no tenant was shed")
	}
	if ops.Safe || ops.Verdict() != "UNSAFE" {
		t.Fatalf("verdict = %s with %d shed tenant(s), want UNSAFE", ops.Verdict(), ops.Shed)
	}
	shed := 0
	for _, tn := range res.Tenants {
		if !tn.Shed {
			continue
		}
		shed++
		if tn.Completed {
			t.Fatalf("tenant %d both shed and completed", tn.ID)
		}
	}
	if shed != ops.Shed {
		t.Fatalf("%d tenants marked shed, summary says %d", shed, ops.Shed)
	}
	if ops.TenantTicksLost == 0 {
		t.Fatal("shed tenants lost zero tenant-ticks")
	}
}

// TestOpsWorkerCountInvariance: the full ops-storm scenario — death,
// flaps, brownout, thermal, the complete recovery ladder — must stay
// byte-identical across intake worker counts, like every other output.
func TestOpsWorkerCountInvariance(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 3, 8} {
		o := opsOpts("ops-storm")
		o.Workers = workers
		res, err := Run(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := canon(t, res)
		if ref == nil {
			ref = got
			if res.Ops.Migrations == 0 {
				t.Fatal("ops-storm displaced nothing; the invariance case is vacuous")
			}
			continue
		}
		if !bytes.Equal(ref, got) {
			t.Fatalf("workers=%d: ops-faulted canonical output diverged from workers=1", workers)
		}
	}
}

// TestCompleteClearsVacatedSlots: the completion filter burns a tick
// of work for each un-throttled tenant, keeps the unfinished ones in
// placement order, hands the finished ones to done in the same order,
// and nils the vacated tail slots so the backing array does not pin a
// finished tenant for the rest of the run (sim.go's complete).
func TestCompleteClearsVacatedSlots(t *testing.T) {
	a := &tenant{id: 1, remaining: 2}
	b := &tenant{id: 2, remaining: 1}
	c := &tenant{id: 3, remaining: 1, throttled: true}
	d := &tenant{id: 4, remaining: 1}
	list := []*tenant{a, b, c, d}
	var done []*tenant
	got := complete(list, func(t *tenant) { done = append(done, t) })
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("complete kept %v, want tenants 1 and 3", got)
	}
	if len(done) != 2 || done[0] != b || done[1] != d {
		t.Fatalf("complete finished %v, want tenants 2 and 4", done)
	}
	if a.remaining != 1 || c.remaining != 1 {
		t.Fatalf("remaining work %d and %d, want 1 and 1 (a throttled tenant burns none)", a.remaining, c.remaining)
	}
	for k, x := range list[len(got):] {
		if x != nil {
			t.Fatalf("vacated slot %d still pins tenant %d", len(got)+k, x.id)
		}
	}
	// Next tick tenant 1 finishes; the throttled tenant 3 stays.
	if got = complete(got, func(t *tenant) { done = append(done, t) }); len(got) != 1 || got[0] != c || done[2] != a {
		t.Fatalf("second tick kept %v and finished %v, want tenant 3 kept and tenant 1 finished", got, done)
	}
}
