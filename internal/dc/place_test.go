package dc

import (
	"testing"

	"repro/internal/guard"
)

// testChips builds a two-chip placer: chip B runs faster at any power
// (higher intercept), so the scheduler should prefer it until budget
// or occupancy push work to A.
func testChips() []PlacerChip {
	return []PlacerChip{
		{
			ID: "r00c00s00", IdleW: 50, SpanW: 10,
			Cores: []PlacerCore{
				{Label: "P0C0", Slope: -2, Intercept: 4000},
				{Label: "P0C1", Slope: -2, Intercept: 3900},
			},
		},
		{
			ID: "r00c00s01", IdleW: 50, SpanW: 10,
			Cores: []PlacerCore{
				{Label: "P0C0", Slope: -2, Intercept: 4300},
				{Label: "P0C1", Slope: -2, Intercept: 4200},
			},
		},
	}
}

func TestPlacePicksHighestPredictedFrequency(t *testing.T) {
	p := NewPlacer(testChips())
	allow := []float64{200, 200}
	ci, cj, pred, ok := p.Place(1.0, allow)
	if !ok || ci != 1 || cj != 0 {
		t.Fatalf("Place = chip %d core %d ok=%v, want chip 1 core 0", ci, cj, ok)
	}
	// Eq. 1 at projected power 60 W: −2·60 + 4300.
	if want := -2.0*60 + 4300; pred != want {
		t.Fatalf("pred = %v, want %v", pred, want)
	}
	// Second tenant: chip 1 is now at 60 W, projected 70 → 4160; chip 0
	// projects 60 → 3880. Chip 1's second core still wins.
	ci, cj, _, ok = p.Place(1.0, allow)
	if !ok || ci != 1 || cj != 1 {
		t.Fatalf("second Place = chip %d core %d ok=%v, want chip 1 core 1", ci, cj, ok)
	}
	// Chip 1 full: the third lands on chip 0.
	ci, _, _, ok = p.Place(1.0, allow)
	if !ok || ci != 0 {
		t.Fatalf("third Place = chip %d ok=%v, want chip 0", ci, ok)
	}
}

func TestPlaceRespectsAllowance(t *testing.T) {
	p := NewPlacer(testChips())
	// Chip 1's budget only covers idle: everything must go to chip 0.
	allow := []float64{200, 50}
	ci, _, _, ok := p.Place(1.0, allow)
	if !ok || ci != 0 {
		t.Fatalf("Place = chip %d ok=%v, want chip 0", ci, ok)
	}
	// No budget anywhere: placement defers.
	if _, _, _, ok := p.Place(1.0, []float64{55, 50}); ok {
		t.Fatal("Place admitted a tenant with no budget headroom")
	}
}

func TestPlaceSkipsQuarantineAndOpenBreaker(t *testing.T) {
	chips := testChips()
	chips[1].Quarantined = true
	chips[0].Breaker = guard.NewBreaker(guard.BreakerOptions{
		FailureThreshold: 1, OpenTicks: 1 << 40, Now: func() int64 { return 0 },
	})
	chips[0].Breaker.Failure()
	p := NewPlacer(chips)
	if _, _, _, ok := p.Place(1.0, []float64{200, 200}); ok {
		t.Fatal("Place admitted a tenant onto a dead fleet")
	}
	if r := chips[0].Breaker.Rejected(); r != 1 {
		t.Fatalf("breaker rejected %d probes, want 1", r)
	}
}

func TestPlaceSkipsQuarantinedCores(t *testing.T) {
	chips := testChips()
	chips[1].Cores[0].Quarantined = true
	p := NewPlacer(chips)
	ci, cj, _, ok := p.Place(1.0, []float64{200, 200})
	if !ok || ci != 1 || cj != 1 {
		t.Fatalf("Place = chip %d core %d ok=%v, want chip 1 core 1", ci, cj, ok)
	}
}

func TestReleaseFreesCoreAndDemand(t *testing.T) {
	p := NewPlacer(testChips())
	allow := []float64{200, 200}
	ci, cj, _, ok := p.Place(1.0, allow)
	if !ok {
		t.Fatal("Place failed")
	}
	if d := p.Demand(ci); d != 60 {
		t.Fatalf("demand = %v, want 60", d)
	}
	p.Release(ci, cj, 1.0)
	if d := p.Demand(ci); d != 50 {
		t.Fatalf("demand after release = %v, want 50", d)
	}
	if f := p.FreeCores(ci); f != 2 {
		t.Fatalf("free cores after release = %d, want 2", f)
	}
}

func TestPlaceAllocFree(t *testing.T) {
	chips := make([]PlacerChip, 64)
	for i := range chips {
		chips[i] = PlacerChip{ID: NodeID(0, 0, i), IdleW: 50, SpanW: 10}
		for j := 0; j < 8; j++ {
			chips[i].Cores = append(chips[i].Cores, PlacerCore{
				Label: "C", Slope: -2, Intercept: 4000 + float64(i),
			})
		}
	}
	p := NewPlacer(chips)
	allow := make([]float64, len(chips))
	for i := range allow {
		allow[i] = 500
	}
	allocs := testing.AllocsPerRun(100, func() {
		ci, cj, _, ok := p.Place(0.7, allow)
		if ok {
			p.Release(ci, cj, 0.7)
		}
	})
	if allocs != 0 {
		t.Fatalf("place/release allocates %v per op, want 0", allocs)
	}
}
