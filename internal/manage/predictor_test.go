package manage

import (
	"math"
	"testing"

	"repro/internal/chip"
	"repro/internal/silicon"
)

// TestCalibrateFreqPredictorMatchesReference checks the ladder that
// solves its idle rung once against the one that solves all 32 rungs,
// bit for bit, for every core of the reference server and of 20
// generated 1-chip and 2-chip servers. Each core is programmed to a
// reduction of its own, and every generated server has a power-gated
// sibling and a static-margin sibling next to each target.
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
		for _, c := range m.AllCores() {
			label := c.Profile.Label
			got, gerr := CalibrateFreqPredictor(m, label)
			want, werr := CalibrateFreqPredictorReference(m, label)
			if gerr != nil || werr != nil {
				t.Fatalf("server %d core %s: error %v, reference error %v", si, label, gerr, werr)
			}
			if got.Core != want.Core ||
				math.Float64bits(got.Fit.Slope) != math.Float64bits(want.Fit.Slope) ||
				math.Float64bits(got.Fit.Intercept) != math.Float64bits(want.Fit.Intercept) ||
				math.Float64bits(got.Fit.R2) != math.Float64bits(want.Fit.R2) {
				t.Fatalf("server %d core %s: fit %+v, reference %+v", si, label, got, want)
			}
		}
	}
}
