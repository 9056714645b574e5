package cpm

import (
	"math"
	"testing"

	"repro/internal/silicon"
	"repro/internal/units"
)

func refCore(t *testing.T, label string) *silicon.CoreProfile {
	t.Helper()
	c := silicon.Reference().FindCore(label)
	if c == nil {
		t.Fatalf("no core %s", label)
	}
	return c
}

func TestNewStartsAtPreset(t *testing.T) {
	c := refCore(t, "P0C0")
	m := New(c)
	if m.taps != c.PresetTaps {
		t.Errorf("new monitor at tap %d, want preset %d", m.taps, c.PresetTaps)
	}
	if m.Reduction() != 0 {
		t.Errorf("new monitor reduction = %d, want 0", m.Reduction())
	}
	if m.core != c {
		t.Error("monitor does not instrument the profile it was built on")
	}
}

func TestProgramAccounting(t *testing.T) {
	c := refCore(t, "P0C3")
	m := New(c)
	if err := m.Program(5); err != nil {
		t.Fatal(err)
	}
	if m.Reduction() != 5 || m.taps != c.PresetTaps-5 {
		t.Errorf("after Program(5): reduction=%d taps=%d", m.Reduction(), m.taps)
	}
	if err := m.Program(0); err != nil {
		t.Fatal(err)
	}
	if m.Reduction() != 0 {
		t.Errorf("Program(0) did not restore preset")
	}
}

func TestProgramRejectsOutOfRange(t *testing.T) {
	c := refCore(t, "P0C0")
	m := New(c)
	if err := m.Program(-1); err == nil {
		t.Error("negative reduction accepted")
	}
	if err := m.Program(c.MaxReduction() + 1); err == nil {
		t.Error("reduction beyond tap range accepted")
	}
	// A failed Program must not disturb the configuration.
	if m.Reduction() != 0 {
		t.Errorf("failed Program changed reduction to %d", m.Reduction())
	}
}

func TestMeasureAtSettlePointReadsTheta(t *testing.T) {
	c := refCore(t, "P0C1")
	m := New(c)
	for _, red := range []int{0, 2, c.MaxReduction()} {
		if err := m.Program(red); err != nil {
			t.Fatal(err)
		}
		cycle := units.Picosecond(float64(m.SettleGuardPs()) * silicon.Scale(silicon.VRef))
		r := m.Measure(cycle, silicon.VRef)
		if r.Units != silicon.ThetaUnits {
			t.Errorf("reduction %d: margin at settle point = %d units, want θ=%d",
				red, r.Units, silicon.ThetaUnits)
		}
	}
}

func TestMeasureMoreSlackAtLowerFrequency(t *testing.T) {
	c := refCore(t, "P0C2")
	m := New(c)
	slow := m.Measure(units.MHz(4000).CycleTime(), silicon.VRef)
	fast := m.Measure(units.MHz(4800).CycleTime(), silicon.VRef)
	if slow.Units <= fast.Units {
		t.Errorf("slack at 4.0 GHz (%d) not above 4.8 GHz (%d)", slow.Units, fast.Units)
	}
}

func TestMeasureNegativeOnViolation(t *testing.T) {
	c := refCore(t, "P0C0")
	m := New(c)
	// A cycle far shorter than the CPM path must read negative.
	r := m.Measure(units.MHz(5400).CycleTime(), 1.10)
	if r.Units >= 0 {
		t.Errorf("expected violation at 5.4 GHz / 1.10 V, got %d units", r.Units)
	}
	if r.Units < MinUnits {
		t.Errorf("reading %d under MinUnits %d", r.Units, MinUnits)
	}
}

func TestMeasureSaturates(t *testing.T) {
	c := refCore(t, "P0C0")
	m := New(c)
	r := m.Measure(units.MHz(1500).CycleTime(), silicon.VRef)
	if r.Units != MaxUnits {
		t.Errorf("huge slack reads %d, want saturation %d", r.Units, MaxUnits)
	}
}

func TestWorstSiteWins(t *testing.T) {
	c := refCore(t, "P1C4")
	m := New(c)
	r := m.Measure(units.MHz(4600).CycleTime(), silicon.VRef)
	if c.SiteSkewPs[r.WorstSite] != 0 {
		t.Errorf("worst site %d has skew %v, want the zero-skew site",
			r.WorstSite, c.SiteSkewPs[r.WorstSite])
	}
	// The reported site must have the maximum delay.
	worst := m.SiteDelay(r.WorstSite, silicon.VRef)
	for i := range c.SiteSkewPs {
		if d := m.SiteDelay(i, silicon.VRef); d > worst+1e-9 {
			t.Errorf("site %d delay %v exceeds reported worst %v", i, d, worst)
		}
	}
}

func TestSiteDelayScalesWithVoltage(t *testing.T) {
	c := refCore(t, "P0C5")
	m := New(c)
	dRef := m.SiteDelay(0, silicon.VRef)
	dLow := m.SiteDelay(0, silicon.VRef-0.05)
	if dLow <= dRef {
		t.Errorf("site delay did not grow at lower voltage: %v vs %v", dLow, dRef)
	}
}

func TestSettleGuardMatchesSilicon(t *testing.T) {
	c := refCore(t, "P0C6")
	m := New(c)
	for red := 0; red <= c.MaxReduction(); red++ {
		if err := m.Program(red); err != nil {
			t.Fatal(err)
		}
		want, err := c.GuardPs(red)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.SettleGuardPs(); math.Abs(float64(got-want)) > 1e-9 {
			t.Errorf("reduction %d: settle guard %v, want %v", red, got, want)
		}
	}
}

// TestReductionIncreasesMeasuredMargin is the core fine-tuning
// mechanism: programming a smaller inserted delay makes the loop
// perceive more margin at the same frequency (Sec. III-A).
func TestReductionIncreasesMeasuredMargin(t *testing.T) {
	c := refCore(t, "P0C3")
	m := New(c)
	cycle := units.MHz(4600).CycleTime()
	prev := -1000
	for red := 0; red <= c.MaxReduction(); red++ {
		if err := m.Program(red); err != nil {
			t.Fatal(err)
		}
		r := m.Measure(cycle, silicon.VRef)
		if r.Units < prev {
			t.Fatalf("measured margin decreased at reduction %d", red)
		}
		prev = r.Units
	}
}
