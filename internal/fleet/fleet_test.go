package fleet

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/silicon"
	"repro/internal/tuning"
)

func TestCampaignValidate(t *testing.T) {
	ok := &Campaign{Name: "ok", Jobs: []Job{
		{ID: "a", Kind: KindTune, SiliconSeed: 1},
		{ID: "b", Kind: KindCharacterize},
	}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
	cases := []struct {
		name string
		c    *Campaign
		want string
	}{
		{"empty", &Campaign{Name: "e"}, "empty campaign"},
		{"no-id", &Campaign{Jobs: []Job{{Kind: KindTune}}}, "empty ID"},
		{"bad-kind", &Campaign{Jobs: []Job{{ID: "a", Kind: "mystery"}}}, "unknown kind"},
		{"dup", &Campaign{Jobs: []Job{{ID: "a", Kind: KindTune}, {ID: "a", Kind: KindTune}}}, "duplicate"},
		{"mc-no-seed", &Campaign{Jobs: []Job{{ID: "a", Kind: KindMonteCarlo}}}, "non-zero silicon seed"},
		// A lifetime job builds its own machine, so a fault profile
		// would change its hash but not its run.
		{"lifetime-fault", &Campaign{Jobs: []Job{
			{ID: "lt-0003", Kind: KindLifetime, SiliconSeed: 3, Years: 1, FaultProfile: "broken-core"},
		}}, "job lt-0003: a lifetime job takes no fault profile"},
	}
	for _, tc := range cases {
		err := tc.c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestJobHashDiscriminates(t *testing.T) {
	base := Job{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 3}
	if base.Hash() != base.Hash() {
		t.Fatal("hash not stable")
	}
	variants := []Job{
		{ID: "b", Kind: KindTune, SiliconSeed: 3, Seed: 3},
		{ID: "a", Kind: KindCharacterize, SiliconSeed: 3, Seed: 3},
		{ID: "a", Kind: KindTune, SiliconSeed: 4, Seed: 3},
		{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 4},
		{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 3, Rollback: 1},
		{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 3, FaultProfile: "broken-core"},
		{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 3, FaultSeed: 9},
		{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 3, OpsProfile: "ops-storm"},
		{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 3, OpsSeed: 9},
	}
	seen := map[string]bool{base.Hash(): true}
	for _, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Errorf("hash collision for %+v", v)
		}
		seen[h] = true
	}
}

// TestJobHashOpsFieldCompat: the ops scenario fields ride the PR 7
// precedent — omitted from the canonical serialization at their zero
// values, so every pre-ops job spec keeps its hash (and its cache
// entries) across the upgrade.
func TestJobHashOpsFieldCompat(t *testing.T) {
	j := Job{ID: "a", Kind: KindTune, SiliconSeed: 3, Seed: 3}
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("ops_profile")) || bytes.Contains(raw, []byte("ops_seed")) {
		t.Fatalf("zero-valued ops fields leak into the canonical serialization: %s", raw)
	}
	armed := j
	armed.OpsProfile = "ops-storm"
	armed.OpsSeed = 1
	if armed.Hash() == j.Hash() {
		t.Fatal("arming the ops scenario did not change the job hash")
	}
}

// TestMonteCarloMatchesDirect pins the fleet's montecarlo job to the
// direct computation the sequential ext-montecarlo study performs.
func TestMonteCarloMatchesDirect(t *testing.T) {
	const seed = 5
	res, err := Run(MonteCarlo(1, seed), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Results[0].MonteCarlo()
	if err != nil {
		t.Fatal(err)
	}

	profile, err := silicon.Generate(seed, silicon.GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := chip.New(profile, chip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := tuning.Deploy(m, tuning.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1<<30, 0
	for _, c := range profile.AllCores() {
		l := c.DeterministicLimit(0)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	var fMax float64
	for _, cfg := range dep.Configs {
		if f := float64(cfg.IdleFreq); f > fMax {
			fMax = f
		}
	}
	if got.IdleLimitLo != lo || got.IdleLimitHi != hi {
		t.Errorf("idle limits: got %d-%d, want %d-%d", got.IdleLimitLo, got.IdleLimitHi, lo, hi)
	}
	// The fleet job must reproduce the direct computation bit-for-bit,
	// so exact equality is the contract under test.
	if got.SpeedDiffMHz != dep.SpeedDifferentialMHz() || got.MaxIdleFreqMHz != fMax {
		t.Errorf("freqs: got (%v, %v), want (%v, %v)",
			got.SpeedDiffMHz, got.MaxIdleFreqMHz, dep.SpeedDifferentialMHz(), fMax)
	}
}

func TestRunMixedKindsOnReference(t *testing.T) {
	camp := &Campaign{Name: "mixed", Jobs: []Job{
		{ID: "charact-ref", Kind: KindCharacterize, Trials: 1},
		{ID: "tune-ref", Kind: KindTune},
	}}
	res, err := Run(camp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cr, err := res.Results[0].Characterize()
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Rows) != 16 {
		t.Errorf("characterize rows: got %d, want 16", len(cr.Rows))
	}
	tr, err := res.Results[1].Tune()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Configs) != 16 {
		t.Errorf("tune configs: got %d, want 16", len(tr.Configs))
	}
	if tr.SpeedDiffMHz <= 0 {
		t.Errorf("tune speed differential: got %v, want > 0", tr.SpeedDiffMHz)
	}
}

// TestFailedJobRecordedNotCached checks that a job failure lands in its
// Result, doesn't abort the campaign, and is not cached, so a re-run
// retries it.
func TestFailedJobRecordedNotCached(t *testing.T) {
	dir := t.TempDir()
	camp := &Campaign{Name: "partial", Jobs: []Job{
		{ID: "bad", Kind: KindTune, FaultProfile: "no-such-preset"},
		{ID: "good", Kind: KindMonteCarlo, SiliconSeed: 2, Seed: 2},
	}}
	res, err := Run(camp, Options{Workers: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Failed(); len(got) != 1 || got[0] != "bad" {
		t.Fatalf("Failed() = %v, want [bad]", got)
	}
	if res.Results[0].Err == "" || res.Results[0].Payload != nil {
		t.Errorf("failed result not recorded: %+v", res.Results[0])
	}
	if _, err := os.Stat(filepath.Join(dir, camp.Jobs[0].Hash()+".json")); !os.IsNotExist(err) {
		t.Error("failed job was cached")
	}
}

// TestCacheHitSecondRun checks the content-addressed cache: a second
// run serves every job from disk and merges to identical bytes.
func TestCacheHitSecondRun(t *testing.T) {
	dir := t.TempDir()
	camp := MonteCarlo(3, 1)
	first, err := Run(camp, Options{Workers: 3, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := first.CachedCount(); n != 0 {
		t.Fatalf("first run cached count = %d, want 0", n)
	}
	second, err := Run(camp, Options{Workers: 3, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if n := second.CachedCount(); n != 3 {
		t.Fatalf("second run cached count = %d, want 3", n)
	}
	if a, b := mergedJSON(t, first), mergedJSON(t, second); a != b {
		t.Errorf("cached re-run drifted:\n%s\nvs\n%s", a, b)
	}
}

// TestCorruptCacheEntryIsMiss checks the envelope validation: torn or
// foreign entries re-run instead of poisoning the merge.
func TestCorruptCacheEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	camp := MonteCarlo(1, 7)
	first, err := Run(camp, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, camp.Jobs[0].Hash()+".json")
	if err := os.WriteFile(path, []byte(`{"version":"fleet/v1","job_hash":"tampered"`), 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := Run(camp, Options{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if second.CachedCount() != 0 {
		t.Fatal("corrupt entry served as a hit")
	}
	if a, b := mergedJSON(t, first), mergedJSON(t, second); a != b {
		t.Errorf("re-run after corruption drifted")
	}
}

// mergedJSON renders a campaign result's canonical serialization.
func mergedJSON(t *testing.T, r *CampaignResult) string {
	t.Helper()
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCheckSeedRange: a sweep's seed range is rejected exactly when its
// last job's seed would wrap past 2^64−1.
func TestCheckSeedRange(t *testing.T) {
	for _, tc := range []struct {
		start uint64
		n     int
		ok    bool
	}{
		{math.MaxUint64, 0, true},
		{math.MaxUint64, 1, true},
		{math.MaxUint64, 2, false},
		{math.MaxUint64 - 1, 2, true},
		{math.MaxUint64 - 1, 3, false},
		{math.MaxUint64 - 7, 8, true},
		{math.MaxUint64 - 7, 9, false},
		{0, math.MaxInt, true},
		{1, math.MaxInt, true},
	} {
		err := CheckSeedRange("-seed", tc.start, tc.n)
		if (err == nil) != tc.ok {
			t.Errorf("CheckSeedRange(%d, %d) = %v, want ok %v", tc.start, tc.n, err, tc.ok)
		}
	}
}
