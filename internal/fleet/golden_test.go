package fleet

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// -update regenerates the fleet golden files under testdata/.
var update = flag.Bool("update", false, "rewrite golden fleet files")

// TestCacheEntriesGolden pins the bytes of the cache entries a small
// mixed campaign writes: one montecarlo, one tune and one dcprovision
// job, the last stamped with an ops scenario as dc.Campaign stamps it.
// Each line names a job's entry file (its Job.Hash) and the SHA-256 of
// the file's bytes. The test reads entries by job hash and ignores
// every other file in the directory, so a cache written by an older
// build keeps serving hits for exactly as long as this golden holds.
// Regenerate intentionally with:
//
//	go test ./internal/fleet -run TestCacheEntriesGolden -update
func TestCacheEntriesGolden(t *testing.T) {
	camp := &Campaign{Name: "cache-entries", Jobs: []Job{
		{ID: "mc-0001", Kind: KindMonteCarlo, SiliconSeed: 1, Seed: 1},
		{ID: "tune-0002", Kind: KindTune, SiliconSeed: 2, Seed: 2},
		{ID: "dc-r00c00s00", Kind: KindDCProvision, SiliconSeed: 3, Chips: 1, Seed: 3,
			OpsProfile: "chip-deaths=1,link-flaps=2,flap-ticks=6,grace=2,readmit=2,brownouts=1," +
				"brownout-frac=0.6,brownout-ticks=6,thermals=1,thermal-frac=0.5,thermal-ticks=4",
			OpsSeed: 1},
	}}
	dir := t.TempDir()
	res, err := Run(camp, Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if failed := res.Failed(); len(failed) != 0 {
		t.Fatalf("jobs failed: %v", failed)
	}
	var b bytes.Buffer
	for _, j := range camp.Jobs {
		name := j.Hash() + ".json"
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
		fmt.Fprintf(&b, "%s %s %x\n", j.ID, name, sha256.Sum256(raw))
	}
	got := b.Bytes()
	path := filepath.Join("testdata", "cache-entries.golden")
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
		t.Fatalf("missing golden cache entries (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cache entries drifted from their golden digests.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
