package dc

import (
	"bytes"
	"flag"
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
