package dvfs

import (
	"testing"
	"testing/quick"

	"repro/internal/chip"
	"repro/internal/units"
)

func TestPerformanceAndPowersave(t *testing.T) {
	for _, util := range []float64{0, 0.5, 1} {
		if got := (Performance{}).Pick(util, 2100); got != chip.PStateMax {
			t.Errorf("performance picked %v", got)
		}
		if got := (Powersave{}).Pick(util, 4200); got != chip.PStateMin {
			t.Errorf("powersave picked %v", got)
		}
	}
}

func TestOndemandShape(t *testing.T) {
	g := DefaultOndemand()
	// High utilization: jump straight to the top from anywhere.
	if got := g.Pick(0.9, 2100); got != chip.PStateMax {
		t.Errorf("busy core picked %v", got)
	}
	// Mid utilization: hold.
	if got := g.Pick(0.5, 3300); got != 3300 {
		t.Errorf("mid-util core moved to %v", got)
	}
	// Low utilization: descend exactly one ladder step.
	if got := g.Pick(0.1, 4200); got != 4000 {
		t.Errorf("idle core stepped to %v, want 4000", got)
	}
	if got := g.Pick(0.1, 2100); got != 2100 {
		t.Errorf("idle core at the floor moved to %v", got)
	}
}

func TestOndemandZeroValueUsesDefaults(t *testing.T) {
	var g Ondemand
	if got := g.Pick(0.95, 2100); got != chip.PStateMax {
		t.Errorf("zero-value governor picked %v at 95%% util", got)
	}
}

// TestOndemandConverges: repeated low utilization walks to the floor;
// a burst recovers the top in one decision.
func TestOndemandConverges(t *testing.T) {
	g := DefaultOndemand()
	p := chip.PStateMax
	for i := 0; i < 20; i++ {
		p = g.Pick(0.05, p)
	}
	if p != chip.PStateMin {
		t.Errorf("sustained idle settled at %v", p)
	}
	if got := g.Pick(1.0, p); got != chip.PStateMax {
		t.Errorf("burst from floor picked %v", got)
	}
}

// TestPickAlwaysOnLadder: every governor returns a legal p-state for
// any utilization and any legal current state.
func TestPickAlwaysOnLadder(t *testing.T) {
	onLadder := func(f units.MHz) bool {
		for _, p := range chip.PStates {
			if p == f {
				return true
			}
		}
		return false
	}
	govs := []Governor{Performance{}, Powersave{}, DefaultOndemand()}
	prop := func(utilRaw uint8, curIdx uint8) bool {
		util := float64(utilRaw) / 255
		cur := chip.PStates[int(curIdx)%len(chip.PStates)]
		for _, g := range govs {
			if !onLadder(g.Pick(util, cur)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestApply(t *testing.T) {
	m := chip.NewReference()
	core, err := m.Core("P0C0")
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(core, Powersave{}, 0.5); err != nil {
		t.Fatal(err)
	}
	if core.PState() != chip.PStateMin {
		t.Errorf("Apply left p-state at %v", core.PState())
	}
	if err := Apply(core, Performance{}, 0.5); err != nil {
		t.Fatal(err)
	}
	if core.PState() != chip.PStateMax {
		t.Errorf("Apply left p-state at %v", core.PState())
	}
}
