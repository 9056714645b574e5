package manage

import (
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/silicon"
)

// TestCalibrateFreqPredictorMatchesReference checks the ladder that
// solves each distinct chip state once against the one that solves all
// 32 rungs, bit for bit, for every core of the reference server and of
// 20 generated 1-chip and 2-chip servers. Each core is programmed to a
// reduction of its own, and every generated server has a power-gated
// sibling and a static-margin sibling next to each target. The ladder
// runs three ways: one core at a time, over all of the server's cores
// at once, and over every other core, the gaps an intake quarantine
// leaves.
func TestCalibrateFreqPredictorMatchesReference(t *testing.T) {
	servers := []*silicon.ServerProfile{silicon.Reference()}
	for seed := uint64(1); seed <= 20; seed++ {
		s, err := silicon.Generate(seed, silicon.GenerateOptions{Chips: 1 + int(seed%2)})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	for si, s := range servers {
		m, err := chip.New(s, chip.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range m.AllCores() {
			if err := c.Monitor.Program(i % (c.Profile.MaxReduction() + 1)); err != nil {
				t.Fatal(err)
			}
		}
		if si > 0 {
			for _, ch := range m.Chips {
				ch.Cores[1].SetGated(true)
				ch.Cores[2].SetMode(chip.ModeStatic)
			}
		}
		var all, gaps []string
		want := map[string]FreqPredictor{}
		for i, c := range m.AllCores() {
			label := c.Profile.Label
			all = append(all, label)
			if i%2 == 1 {
				gaps = append(gaps, label)
			}
			fp, err := CalibrateFreqPredictorReference(m, label)
			if err != nil {
				t.Fatalf("server %d core %s: reference error %v", si, label, err)
			}
			want[label] = fp
		}
		for _, label := range all {
			got, err := CalibrateFreqPredictor(m, label)
			if err != nil {
				t.Fatalf("server %d core %s: %v", si, label, err)
			}
			requireSameFit(t, si, "one core", got, want[label])
		}
		for _, set := range []struct {
			name   string
			labels []string
		}{{"every core", all}, {"every other core", gaps}} {
			got, err := CalibrateFreqPredictors(m, set.labels)
			if err != nil {
				t.Fatalf("server %d, %s: %v", si, set.name, err)
			}
			if len(got) != len(set.labels) {
				t.Fatalf("server %d, %s: %d fits for %d cores", si, set.name, len(got), len(set.labels))
			}
			for i, label := range set.labels {
				if got[i].Core != label {
					t.Fatalf("server %d, %s: fit %d is core %s, want %s", si, set.name, i, got[i].Core, label)
				}
				requireSameFit(t, si, set.name, got[i], want[label])
			}
		}
	}
}

// requireSameFit fails unless got and want are the same core's fit, bit
// for bit.
func requireSameFit(t *testing.T, server int, how string, got, want FreqPredictor) {
	t.Helper()
	if got.Core != want.Core ||
		math.Float64bits(got.Fit.Slope) != math.Float64bits(want.Fit.Slope) ||
		math.Float64bits(got.Fit.Intercept) != math.Float64bits(want.Fit.Intercept) ||
		math.Float64bits(got.Fit.R2) != math.Float64bits(want.Fit.R2) {
		t.Fatalf("server %d, %s: core %s fit %+v, reference %+v", server, how, want.Core, got, want)
	}
}

// TestCalibrateFreqPredictorsSolveCount pins how many chip states the
// ladder solves: 22 for one core's 32 rungs (the target beside 0–7
// co-runners of three loads, the all-idle state once), 148 for an 8-core
// chip's eight ladders (a state with k coremark co-runners is the same
// state for every target among its k+1 coremark cores), and on the
// 2-chip reference server 148 per chip, no rung re-solving the other
// chip.
func TestCalibrateFreqPredictorsSolveCount(t *testing.T) {
	s, err := silicon.Generate(1, silicon.GenerateOptions{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	node, err := chip.New(s, chip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref := chip.NewReference()
	for _, tc := range []struct {
		name   string
		m      *chip.Machine
		labels []string
		want   int
	}{
		{"one core", node, []string{"P0C3"}, 22},
		{"one chip", node, coreLabels(node), 148},
		{"two chips", ref, coreLabels(ref), 2 * 148},
	} {
		got, err := CalibrateFreqPredictorsSolves(tc.m, tc.labels)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: %d chip states solved, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCalibrateFreqPredictorsAllocs caps a node's calibration at 16
// allocations however many of its cores it fits: fewer than the 22
// solves of one ladder, so a solve that allocated would trip it.
func TestCalibrateFreqPredictorsAllocs(t *testing.T) {
	s, err := silicon.Generate(1, silicon.GenerateOptions{Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := chip.New(s, chip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	labels := coreLabels(m)
	for _, n := range []int{1, 4, len(labels)} {
		if got := testing.AllocsPerRun(10, func() { _, err = CalibrateFreqPredictors(m, labels[:n]) }); got > 16 {
			t.Errorf("calibrating %d cores allocates %v times, want at most 16", n, got)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// coreLabels lists every core of m in (chip, core) order.
func coreLabels(m *chip.Machine) []string {
	var out []string
	for _, c := range m.AllCores() {
		out = append(out, c.Profile.Label)
	}
	return out
}
