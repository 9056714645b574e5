package lifetime

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/silicon"
)

// -update regenerates the lifetime golden snapshots under testdata/.
var update = flag.Bool("update", false, "rewrite golden lifetime snapshots")

// TestGoldenRuns pins the JSON Result of three simulated years on the
// reference server, with the sentinel on and off, across commits. The
// sentinel-off run ends with negative margins, so the snapshot also
// covers the sign path of the FSP margins formatter. Regenerate
// intentionally with:
//
//	go test ./internal/lifetime -run TestGoldenRuns -update
func TestGoldenRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  bool
	}{
		{"sentinel-on", false},
		{"sentinel-off", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(silicon.Reference(), Options{Years: 3, Seed: 1, SentinelOff: tc.off})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
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
				t.Errorf("lifetime run %s drifted from its golden snapshot.\n--- got ---\n%s\n--- want ---\n%s",
					tc.name, got, want)
			}
		})
	}
}
