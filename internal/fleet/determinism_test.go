package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/obs"
)

// The engine's contract: the merged results, the metrics snapshot, the
// trace file, and the cache contents are all byte-identical whether a
// campaign runs on one worker or many, with or without fault
// injection, and whether it ran straight through or was rerun on the
// cache a killed run left. These tests are the fleet's slice of the
// repository's determinism CI gate.

// runExports captures every deterministic export of one campaign run.
type runExports struct {
	merged  string
	metrics string
	trace   string
	cache   map[string]string // file name → contents
}

func runWith(t *testing.T, c *Campaign, workers int, dir string) runExports {
	t.Helper()
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	res, err := Run(c, Options{Workers: workers, CacheDir: dir, Obs: reg, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := tr.WriteJSON(&trace); err != nil {
		t.Fatal(err)
	}
	return runExports{
		merged:  mergedJSON(t, res),
		metrics: string(reg.SnapshotJSON()),
		trace:   trace.String(),
		cache:   snapshotDir(t, dir),
	}
}

// snapshotDir reads every file in dir into a map.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	if dir == "" {
		return out
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(raw)
	}
	return out
}

func diffExports(t *testing.T, what string, a, b runExports) {
	t.Helper()
	if a.merged != b.merged {
		t.Errorf("%s: merged results differ:\n%s\nvs\n%s", what, a.merged, b.merged)
	}
	if a.metrics != b.metrics {
		t.Errorf("%s: metrics snapshots differ:\n%s\nvs\n%s", what, a.metrics, b.metrics)
	}
	if a.trace != b.trace {
		t.Errorf("%s: traces differ:\n%s\nvs\n%s", what, a.trace, b.trace)
	}
	if len(a.cache) != len(b.cache) {
		t.Fatalf("%s: cache entry counts differ: %d vs %d", what, len(a.cache), len(b.cache))
	}
	names := make([]string, 0, len(a.cache))
	for name := range a.cache {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bv, ok := b.cache[name]
		if !ok {
			t.Errorf("%s: cache entry %s missing from second run", what, name)
			continue
		}
		if a.cache[name] != bv {
			t.Errorf("%s: cache entry %s differs", what, name)
		}
	}
}

// TestWorkerCountInvariance runs the same campaign at workers=1 and
// workers=8 and demands byte-identical exports across the board.
func TestWorkerCountInvariance(t *testing.T) {
	camp := MonteCarlo(6, 1)
	one := runWith(t, camp, 1, t.TempDir())
	eight := runWith(t, camp, 8, t.TempDir())
	diffExports(t, "montecarlo w1 vs w8", one, eight)
}

// TestWorkerCountInvarianceFaulted repeats the invariance check with a
// fault profile armed: injected faults draw from per-job rng splits,
// so parallelism must not reorder them either.
func TestWorkerCountInvarianceFaulted(t *testing.T) {
	camp := TuneSweep(4, 1, 0, "test-floor,broken=1", 7)
	one := runWith(t, camp, 1, t.TempDir())
	eight := runWith(t, camp, 8, t.TempDir())
	diffExports(t, "faulted tune w1 vs w8", one, eight)

	// The profile must actually bite: at least one job should report a
	// quarantined core, or the fault matrix is a no-op.
	res, err := Run(camp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, r := range res.Results {
		tr, err := r.Tune()
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range tr.Configs {
			if cfg.Quarantined {
				quarantined++
			}
		}
	}
	if quarantined == 0 {
		t.Error("fault profile armed but no core was quarantined in any job")
	}
}

// TestResumeMatchesUninterrupted simulates a campaign killed partway:
// a prefix of the jobs completes (and is cached), the process "dies",
// and the same campaign is rerun on the same cache directory. The
// rerun's final output must be byte-identical to a straight-through
// run, and the directory must end up holding exactly one entry per
// job and nothing else.
func TestResumeMatchesUninterrupted(t *testing.T) {
	full := MonteCarlo(5, 11)

	// The uninterrupted reference run.
	ref := runWith(t, full, 8, t.TempDir())

	// The killed run: only the first two jobs ever executed. A prefix
	// campaign shares those jobs' content hashes, so its cache entries
	// are exactly what the interrupted full campaign would have left.
	dir := t.TempDir()
	prefix := &Campaign{Name: full.Name, Jobs: full.Jobs[:2]}
	if _, err := Run(prefix, Options{Workers: 2, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}

	// The restart. It must serve the completed prefix from cache, run
	// the rest, and merge to the reference bytes.
	res, err := Run(full, Options{Workers: 8, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CachedCount(); got != 2 {
		t.Errorf("rerun cached count = %d, want 2", got)
	}
	if got := mergedJSON(t, res); got != ref.merged {
		t.Errorf("rerun merge differs from uninterrupted run:\n%s\nvs\n%s", got, ref.merged)
	}
	checkOnlyEntries(t, dir, full)
	if files := snapshotDir(t, dir); len(files) != len(full.Jobs) {
		t.Errorf("cache holds %d file(s), want one entry per job (%d)", len(files), len(full.Jobs))
	}
}

// checkOnlyEntries fails the test for any file in dir that is not the
// cache entry of one of the campaign's jobs.
func checkOnlyEntries(t *testing.T, dir string, c *Campaign) {
	t.Helper()
	entries := make(map[string]bool, len(c.Jobs))
	for _, j := range c.Jobs {
		entries[j.Hash()+".json"] = true
	}
	for name := range snapshotDir(t, dir) {
		if !entries[name] {
			t.Errorf("cache holds %s, which is no entry of campaign %s", name, c.Name)
		}
	}
}

// TestCacheContentsStableAcrossRuns pins the cache files themselves:
// two fresh runs into different directories produce identical entries,
// so cache state can ride in the byte-diff CI gate too.
func TestCacheContentsStableAcrossRuns(t *testing.T) {
	camp := CharacterizeSweep(2, 21, 1, "", 0)
	a := runWith(t, camp, 2, t.TempDir())
	b := runWith(t, camp, 1, t.TempDir())
	diffExports(t, "charact sweep cache", a, b)
}
