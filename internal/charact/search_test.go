package charact

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/workload"
)

// TestFindLimitMatchesDeterministic: the stochastic upward search lands
// on the silicon model's deterministic idle limit.
func TestFindLimitMatchesDeterministic(t *testing.T) {
	m := chip.NewReference()
	src := rng.New(21)
	for _, core := range m.AllCores() {
		d, err := findLimit(m, core.Profile.Label, workload.Idle, 10, 4, 0, src.Split(core.Profile.Label), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Profile.DeterministicLimit(0)
		if d.Limit != want {
			t.Errorf("%s: search found %d, deterministic %d", core.Profile.Label, d.Limit, want)
		}
		recorded := 0
		for _, v := range d.Hist.Support() {
			recorded += d.Hist.Count(v)
		}
		if recorded != 10 {
			t.Errorf("%s: %d trials recorded", core.Profile.Label, recorded)
		}
	}
}

// TestFindRollbackFromAbove: starting above the limit, the rollback
// search descends to it; starting at or below, it stays put.
func TestFindRollbackFromAbove(t *testing.T) {
	m := chip.NewReference()
	src := rng.New(22)
	core, err := m.Core("P1C3")
	if err != nil {
		t.Fatal(err)
	}
	want := core.Profile.DeterministicLimit(workload.X264.StressScore)
	idle := core.Profile.DeterministicLimit(0)
	if want >= idle {
		t.Fatalf("fixture broken: x264 limit %d not below idle %d", want, idle)
	}
	d, err := findRollback(m, "P1C3", workload.X264, idle, 10, 4, 0, src.Split("above"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Limit != want {
		t.Errorf("rollback from idle found %d, want %d", d.Limit, want)
	}
	// Starting at the limit itself: no movement.
	d2, err := findRollback(m, "P1C3", workload.X264, want, 10, 4, 0, src.Split("at"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Limit != want {
		t.Errorf("rollback from the limit moved to %d", d2.Limit)
	}
	// Starting below: stays below (the search never climbs).
	d3, err := findRollback(m, "P1C3", workload.X264, want-1, 10, 4, 0, src.Split("below"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Limit != want-1 {
		t.Errorf("rollback from below the limit moved to %d", d3.Limit)
	}
}

// TestSearchesMatchDeterministicOnGeneratedChips is the property-based
// check that the methodology agrees with the silicon model's analytic
// limits on arbitrary Monte-Carlo silicon, not just the calibrated
// reference.
func TestSearchesMatchDeterministicOnGeneratedChips(t *testing.T) {
	prop := func(seed uint64, coreIdx uint8) bool {
		profile, err := silicon.Generate(seed, silicon.GenerateOptions{Chips: 1})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		m, err := chip.New(profile, chip.Options{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cores := m.AllCores()
		core := cores[int(coreIdx)%len(cores)]
		d, err := findLimit(m, core.Profile.Label, workload.Idle, 8, 4, 0, rng.New(seed^0xABCD), nil, nil)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := core.Profile.DeterministicLimit(0)
		if d.Limit != want {
			t.Logf("seed %d core %s: search %d vs deterministic %d",
				seed, core.Profile.Label, d.Limit, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCharacterizeSubsetOfApps: a restricted app set yields limits that
// are never more conservative than the full set's.
func TestCharacterizeSubsetOfApps(t *testing.T) {
	m := chip.NewReference()
	full, err := Characterize(m, Options{Trials: 4})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Characterize(m, Options{Trials: 4, Apps: []workload.Profile{workload.GCC, workload.Leela}})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range sub.Cores {
		if c.ThreadWorst < full.Cores[i].ThreadWorst {
			t.Errorf("%s: benign-only thread-worst %d below full-set %d",
				c.Core, c.ThreadWorst, full.Cores[i].ThreadWorst)
		}
	}
}

// TestRobustnessRankStable: the ranking is a permutation of all cores.
func TestRobustnessRankStable(t *testing.T) {
	rep := referenceReport(t)
	rank := rep.RobustnessRank()
	if len(rank) != len(rep.Cores) {
		t.Fatalf("rank has %d entries", len(rank))
	}
	seen := map[string]bool{}
	for _, l := range rank {
		if seen[l] {
			t.Fatalf("duplicate %s in rank", l)
		}
		seen[l] = true
	}
}

// TestSearchesRejectEmptyCounts: a search with no trial reads a limit
// of 0, and one with no run per configuration passes every reduction
// unexamined, so both searches refuse a count below 1 and name the
// field, whichever entry point reached them.
func TestSearchesRejectEmptyCounts(t *testing.T) {
	apps := []workload.Profile{workload.GCC}
	for _, tc := range []struct {
		name string
		o    Options
		want string
	}{
		{"negative trials", Options{Trials: -1, Apps: apps}, "Trials -1"},
		{"negative runs", Options{Trials: 2, RunsPerConfig: -1, Apps: apps}, "RunsPerConfig -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Characterize(chip.NewReference(), tc.o); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Characterize: err = %v, want one naming %q", err, tc.want)
			}
		})
	}
	m := chip.NewReference()
	for _, c := range []struct{ trials, runs int }{{0, 4}, {10, 0}} {
		if _, err := findLimit(m, "P0C0", workload.Idle, c.trials, c.runs, 0, rng.New(1), nil, nil); err == nil {
			t.Errorf("findLimit with %d trial(s) of %d run(s) accepted", c.trials, c.runs)
		}
		if _, err := findRollback(m, "P0C0", workload.GCC, 6, c.trials, c.runs, 0, rng.New(1), nil, nil); err == nil {
			t.Errorf("findRollback with %d trial(s) of %d run(s) accepted", c.trials, c.runs)
		}
	}
}
