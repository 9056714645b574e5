package dc

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// -update regenerates the dc golden snapshots under testdata/.
var update = flag.Bool("update", false, "rewrite golden dc snapshots")

// goldenOpts is the golden campaign: the small topology, 64 tenants
// over 256 ticks, with the named ops profile ("" for a plain run) on
// ops seed 3.
func goldenOpts(profile string) Options {
	o := smallOpts()
	o.Tenants = 64
	o.Ticks = 256
	o.OpsFaultProfile = profile
	o.OpsFaultSeed = 3
	return o
}

// TestGoldenRuns pins the canonical Result and the obs registry
// snapshot of a plain and an ops-storm campaign across commits. The
// ops-storm run sheds through open breakers and walks the quarantine →
// re-admit ladder, so the snapshot covers every breaker transition the
// sim drives. Regenerate intentionally with:
//
//	go test ./internal/dc -run TestGoldenRuns -update
func TestGoldenRuns(t *testing.T) {
	for _, tc := range []struct{ name, profile string }{
		{"plain", ""},
		{"ops-storm", "ops-storm"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := goldenOpts(tc.profile)
			o.Obs = obs.NewRegistry()
			res, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			got := append(canon(t, res), o.Obs.SnapshotJSON()...)
			got = append(got, '\n')
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("dc run %s drifted from its golden snapshot.\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, got, want)
			}
		})
	}
}

// TestOverloadGolden pins the SHA-256 of the canonical Result plus the
// obs snapshot of five benchmark-shaped overload runs across commits:
// 1×2×4 chips under 8× tenant overload (512 tenants over 2048 ticks),
// three with the ops-storm profile on ops seeds 1–3, one plain, and one
// whose intake fault profile quarantines some but not all nodes, so
// breakers held open past the horizon sit beside live chips. Each run
// must queue at least 100 tenants at once, which the 64-tenant goldens
// never reach, and each ops-storm run must migrate at least one, so
// the queue and evacuation paths are exercised. Regenerate
// intentionally with:
//
//	go test ./internal/dc -run TestOverloadGolden -update
func TestOverloadGolden(t *testing.T) {
	var b bytes.Buffer
	for _, tc := range []struct {
		name          string
		ops           string
		opsSeed       uint64
		fault         string
		faultSeed     uint64
		wantMigration bool
	}{
		{name: "ops-seed 1", ops: "ops-storm", opsSeed: 1, wantMigration: true},
		{name: "ops-seed 2", ops: "ops-storm", opsSeed: 2, wantMigration: true},
		{name: "ops-seed 3", ops: "ops-storm", opsSeed: 3, wantMigration: true},
		{name: "plain"},
		{name: "fault-seed 1 trial-err=0.8", fault: "trial-err=0.8", faultSeed: 1},
	} {
		o := Options{
			Racks: 1, ChassisPerRack: 2, ChipsPerChassis: 4,
			Tenants: 512, Ticks: 2048,
			OpsFaultProfile: tc.ops, OpsFaultSeed: tc.opsSeed,
			FaultProfile: tc.fault, FaultSeed: tc.faultSeed,
			Obs: obs.NewRegistry(),
		}
		res, err := Run(o)
		if err != nil {
			t.Fatal(err)
		}
		peak := 0
		for _, row := range res.Timeline {
			peak = max(peak, row.Queued)
		}
		if peak < 100 {
			t.Errorf("%s: the queue peaks at %d tenants, want at least 100", tc.name, peak)
		}
		if tc.wantMigration && (res.Ops == nil || res.Ops.Migrations < 1) {
			t.Errorf("%s: no tenant migrated", tc.name)
		}
		if q := res.QuarantinedChips(); tc.fault != "" && (q == 0 || q == len(res.Chips)) {
			t.Errorf("%s: %d of %d nodes quarantined at intake, want some but not all", tc.name, q, len(res.Chips))
		}
		sum := sha256.Sum256(append(canon(t, res), o.Obs.SnapshotJSON()...))
		fmt.Fprintf(&b, "%s %x\n", tc.name, sum)
	}
	got := b.Bytes()
	path := filepath.Join("testdata", "overload.golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden digests (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("overload runs drifted from their golden digests.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
