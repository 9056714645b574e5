package dc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// canon serializes a result to its canonical bytes.
func canon(t *testing.T, r *Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// smallOpts is the test topology: 1 rack × 2 chassis × 2 chips.
func smallOpts() Options {
	return Options{Racks: 1, ChassisPerRack: 2, ChipsPerChassis: 2}
}

func TestWorkerCountInvariance(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"plain", smallOpts()},
		{"faulted", func() Options {
			o := smallOpts()
			o.FaultProfile = "test-floor,broken=1"
			o.FaultSeed = 7
			return o
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var ref []byte
			for _, workers := range []int{1, 3, 8} {
				o := tc.opts
				o.Workers = workers
				res, err := Run(o)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := canon(t, res)
				if ref == nil {
					ref = got
					if res.Placement.Placed == 0 {
						t.Fatal("campaign placed no tenants")
					}
					continue
				}
				if !bytes.Equal(ref, got) {
					t.Fatalf("workers=%d: canonical output diverged from workers=1", workers)
				}
			}
		})
	}
}

func TestCacheHitResume(t *testing.T) {
	dir := t.TempDir()
	o := smallOpts()
	o.Workers = 4
	o.CacheDir = dir
	fresh, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CachedJobs != 0 {
		t.Fatalf("fresh run served %d cached jobs, want 0", fresh.CachedJobs)
	}
	resumed, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(fresh.Chips); resumed.CachedJobs != want {
		t.Fatalf("resumed run served %d cached jobs, want all %d", resumed.CachedJobs, want)
	}
	if !bytes.Equal(canon(t, fresh), canon(t, resumed)) {
		t.Fatal("resumed canonical output diverged from fresh run")
	}
}

// TestBrokenChipsQuarantinedWithoutStall is the fault.Profile run the
// issue asks for: every core broken on every node quarantines the
// whole fleet behind tripped breakers, and the rack-level sim still
// runs its full horizon — no placements, no hangs, no cap violations.
func TestBrokenChipsQuarantinedWithoutStall(t *testing.T) {
	o := smallOpts()
	o.FaultProfile = "broken=8"
	o.FaultSeed = 5
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.QuarantinedChips(), len(res.Chips); got != want {
		t.Fatalf("quarantined %d chips, want all %d", got, want)
	}
	if res.Placement.Placed != 0 {
		t.Fatalf("placed %d tenants on a fully quarantined fleet", res.Placement.Placed)
	}
	if res.Placement.BreakerRejected == 0 {
		t.Fatal("breakers rejected no probes; quarantine is not breaker-guarded")
	}
	if got, want := len(res.Timeline), res.Topology.Ticks; got != want {
		t.Fatalf("timeline has %d ticks, want the full horizon %d", got, want)
	}
	if res.Budget.Violations != 0 {
		t.Fatalf("quarantined fleet recorded %d violations", res.Budget.Violations)
	}
}

// TestPartialQuarantineKeepsPlacing: broken cores shrink the
// schedulable pool but the remaining cores still take work.
func TestPartialQuarantineKeepsPlacing(t *testing.T) {
	o := smallOpts()
	o.FaultProfile = "broken=2"
	o.FaultSeed = 3
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	qc := 0
	for _, c := range res.Chips {
		qc += c.QuarantinedCores
	}
	if qc == 0 {
		t.Fatal("fault profile broke no cores")
	}
	if res.Placement.Placed == 0 {
		t.Fatal("partially quarantined fleet placed nothing")
	}
	for _, tn := range res.Tenants {
		if tn.Placed && tn.Core == "" {
			t.Fatalf("tenant %d placed without a core", tn.ID)
		}
	}
}

// TestBudgetHierarchyEnforced checks the acceptance invariant on the
// emitted timeline: no level's observed maximum ever exceeds its cap.
func TestBudgetHierarchyEnforced(t *testing.T) {
	o := smallOpts()
	o.Tenants = 32 // pressure
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Timeline {
		if row.RackMaxW > res.Budget.RackCapW+budgetEps {
			t.Fatalf("tick %d: rack draw %v exceeds cap %v", row.Tick, row.RackMaxW, res.Budget.RackCapW)
		}
		if row.ChassisMaxW > res.Budget.ChassisCapW+budgetEps {
			t.Fatalf("tick %d: chassis draw %v exceeds cap %v", row.Tick, row.ChassisMaxW, res.Budget.ChassisCapW)
		}
		if row.ChipMaxW > res.Budget.ChipCapW+budgetEps {
			t.Fatalf("tick %d: chip draw %v exceeds cap %v", row.Tick, row.ChipMaxW, res.Budget.ChipCapW)
		}
		if row.Violations != 0 {
			t.Fatalf("tick %d: %d violations under auto caps", row.Tick, row.Violations)
		}
	}
	if res.Placement.Placed == 0 {
		t.Fatal("no placements under pressure")
	}
}

// TestBelowIdleCapRejected: a configured cap below its level's idle
// draw is physically unenforceable (idle power cannot be shed), so Run
// rejects it at every level, with or without an ops profile, instead
// of running a campaign that excuses or miscounts it. A cap equal to
// the idle draw is feasible and runs with no violations.
func TestBelowIdleCapRejected(t *testing.T) {
	idle := idleOf(t, smallOpts())
	for _, profile := range []string{"", "thermals=1"} {
		for _, tc := range []struct {
			level string
			idleW float64
			set   func(*Options, float64)
		}{
			{"chip", idle.chip, func(o *Options, w float64) { o.ChipCapW = w }},
			{"chassis", idle.chassis, func(o *Options, w float64) { o.ChassisCapW = w }},
			{"rack", idle.rack, func(o *Options, w float64) { o.RackCapW = w }},
		} {
			o := smallOpts()
			o.OpsFaultProfile = profile
			below := math.Nextafter(tc.idleW, 0)
			tc.set(&o, below)
			_, err := Run(o)
			want := fmt.Sprintf("dc: %s cap %g W is below the largest %s idle draw, %g W", tc.level, below, tc.level, tc.idleW)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("profile %q, %s cap just below idle: err = %v, want it to contain %q", profile, tc.level, err, want)
			}

			o = smallOpts()
			o.OpsFaultProfile = profile
			tc.set(&o, tc.idleW)
			res, err := Run(o)
			if err != nil {
				t.Errorf("profile %q, %s cap equal to idle: %v", profile, tc.level, err)
				continue
			}
			if res.Budget.Violations != 0 {
				t.Errorf("profile %q, %s cap equal to idle: %d violation(s), want 0", profile, tc.level, res.Budget.Violations)
			}
		}
	}
}

// TestNegativeSpanRejected feeds the sim an intake whose second node
// measured its loaded draw 1 W below idle: the run must fail before the
// first tick, naming the node, as a below-idle cap does. A loaded draw
// equal to idle (span 0) runs.
func TestNegativeSpanRejected(t *testing.T) {
	o := smallOpts().withDefaults()
	campaign := Campaign(o)
	withLoaded := func(delta float64) *fleet.CampaignResult {
		fres, err := fleet.Run(campaign, fleet.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prov, err := fres.Results[1].DCProvision()
		if err != nil {
			t.Fatal(err)
		}
		cp := &prov.Provision.Chips[0]
		cp.LoadedW = cp.IdleW + delta
		if fres.Results[1].Payload, err = json.Marshal(prov); err != nil {
			t.Fatal(err)
		}
		return fres
	}
	_, err := simulate(o, OpsProfile{}, campaign, withLoaded(-1))
	want := "dc: node " + NodeID(0, 0, 1) + " per-core span is -0.125 W, want at least 0"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("loaded draw below idle: err = %v, want it to contain %q", err, want)
	}
	if _, err := simulate(o, OpsProfile{}, campaign, withLoaded(0)); err != nil {
		t.Fatalf("loaded draw equal to idle: %v", err)
	}
}

// TestSoftStartDynamics: the ramp gates fresh placements below their
// grant until it climbs to the grant, so a default campaign shows
// matched throttle and resume events.
func TestSoftStartDynamics(t *testing.T) {
	res, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget.ThrottleEvents == 0 {
		t.Fatal("no throttle events: the soft-start path never engaged")
	}
	if res.Budget.ResumeEvents == 0 {
		t.Fatal("throttled tenants never resumed")
	}
	if res.Placement.Completed == 0 {
		t.Fatal("no tenant completed")
	}
}

// TestEq1PlacementRecorded: every placed tenant carries the Eq. 1
// predicted frequency the scheduler maximized, and it is physically
// sane (positive, below any hardware ceiling).
func TestEq1PlacementRecorded(t *testing.T) {
	res, err := Run(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	placed := 0
	for _, tn := range res.Tenants {
		if !tn.Placed {
			continue
		}
		placed++
		if tn.PredFreqMHz <= 0 || tn.PredFreqMHz > 10_000 {
			t.Fatalf("tenant %d: predicted frequency %v MHz is not physical", tn.ID, tn.PredFreqMHz)
		}
		if tn.Node == "" || tn.Core == "" {
			t.Fatalf("tenant %d: placed without a (node, core)", tn.ID)
		}
	}
	if placed == 0 {
		t.Fatal("no tenant placed")
	}
}

func TestObsAndTraceDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer()
		o := smallOpts()
		o.Obs = reg
		o.Trace = tr
		if _, err := Run(o); err != nil {
			t.Fatal(err)
		}
		var s bytes.Buffer
		if err := tr.WriteJSON(&s); err != nil {
			t.Fatal(err)
		}
		return reg.SnapshotJSON(), s.Bytes()
	}
	m1, s1 := run()
	m2, s2 := run()
	if !bytes.Equal(m1, m2) {
		t.Fatal("metrics output diverged between identical runs")
	}
	if !bytes.Equal(s1, s2) {
		t.Fatal("trace output diverged between identical runs")
	}
	if !bytes.Contains(m1, []byte("dc_placements_total")) {
		t.Fatal("metrics missing dc_placements_total")
	}
	if !bytes.Contains(m1, []byte("dc_rack_power_watts_max")) {
		t.Fatal("metrics missing dc_rack_power_watts_max")
	}
}

func TestCampaignShape(t *testing.T) {
	o := smallOpts()
	c := Campaign(o)
	if got, want := len(c.Jobs), 4; got != want {
		t.Fatalf("campaign has %d jobs, want %d", got, want)
	}
	if c.Jobs[0].ID != "dc-r00c00s00" || c.Jobs[3].ID != "dc-r00c01s01" {
		t.Fatalf("job IDs off: first %q last %q", c.Jobs[0].ID, c.Jobs[3].ID)
	}
	for i, j := range c.Jobs {
		if j.Chips != 1 {
			t.Fatalf("job %d: Chips = %d, want single-chip nodes", i, j.Chips)
		}
		if j.SiliconSeed == 0 {
			t.Fatalf("job %d: zero silicon seed", i)
		}
	}
}

// TestRunRejectsBadOptions checks that Run refuses, before any intake,
// the options no campaign can run: negative counts, horizon and
// rollback, negative or non-finite caps, seed ranges that wrap past
// 2^64−1, and fault or ops profile specs that do not parse.
func TestRunRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func(*Options)
	}{
		{"racks", func(o *Options) { o.Racks = -2 }},
		{"chassis", func(o *Options) { o.ChassisPerRack = -1 }},
		{"chips", func(o *Options) { o.ChipsPerChassis = -1 }},
		{"tenants", func(o *Options) { o.Tenants = -5 }},
		{"ticks", func(o *Options) { o.Ticks = -5 }},
		{"rollback", func(o *Options) { o.Rollback = -1 }},
		{"negative rack cap", func(o *Options) { o.RackCapW = -10 }},
		{"nan chip cap", func(o *Options) { o.ChipCapW = math.NaN() }},
		{"infinite chassis cap", func(o *Options) { o.ChassisCapW = math.Inf(1) }},
		{"negative infinite chip cap", func(o *Options) { o.ChipCapW = math.Inf(-1) }},
		{"unknown fault profile", func(o *Options) { o.FaultProfile = "bogus" }},
		{"nan fault probability", func(o *Options) { o.FaultProfile = "trial-err=NaN" }},
		{"unknown ops profile", func(o *Options) { o.OpsFaultProfile = "no-such-preset" }},
		{"nan brownout frac", func(o *Options) { o.OpsFaultProfile = "brownouts=1,brownout-frac=NaN" }},
		{"seed range wraps", func(o *Options) { o.Seed = math.MaxUint64 - 2 }},
		{"silicon range wraps", func(o *Options) { o.SiliconStart = math.MaxUint64 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := smallOpts()
			o.Obs = obs.NewRegistry()
			tc.mod(&o)
			if res, err := Run(o); err == nil {
				t.Fatalf("Run accepted %+v: %d tenant(s) placed", o, res.Placement.Placed)
			}
			if got, empty := o.Obs.SnapshotJSON(), obs.NewRegistry().SnapshotJSON(); !bytes.Equal(got, empty) {
				t.Fatalf("Run ran the intake before rejecting the options: %s", got)
			}
		})
	}
}
