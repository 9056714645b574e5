package dpll

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cpm"
	"repro/internal/silicon"
	"repro/internal/units"
)

func newLoop(t *testing.T, label string, red int, start units.MHz) *Loop {
	t.Helper()
	c := silicon.Reference().FindCore(label)
	if c == nil {
		t.Fatalf("no core %s", label)
	}
	m := cpm.New(c)
	if err := m.Program(red); err != nil {
		t.Fatal(err)
	}
	return New(m, start)
}

// run steps the loop n intervals at a fixed supply voltage and returns
// the final frequency and how many intervals read negative margin (the
// clock-gating emergency response).
func run(l *Loop, n int, v units.Volt) (units.MHz, int) {
	violations := 0
	for i := 0; i < n; i++ {
		if l.Step(v).Units < 0 {
			violations++
		}
	}
	return l.Freq(), violations
}

// TestConvergesFromBelow: starting slow, the loop creeps up to the
// settle point.
func TestConvergesFromBelow(t *testing.T) {
	l := newLoop(t, "P0C0", 0, 4000)
	v := units.Volt(1.25)
	got, _ := run(l, 400, v)
	want := l.SettlePoint(v)
	if math.Abs(float64(got-want)) > 2 {
		t.Errorf("settled at %v, want %v", got, want)
	}
}

// TestConvergesFromAbove: starting too fast, the loop slews down.
func TestConvergesFromAbove(t *testing.T) {
	l := newLoop(t, "P0C0", 0, 5200)
	v := units.Volt(1.25)
	got, _ := run(l, 400, v)
	want := l.SettlePoint(v)
	if math.Abs(float64(got-want)) > 2 {
		t.Errorf("settled at %v, want %v", got, want)
	}
}

// TestSettlesHigherWithReduction: the fine-tuning effect through the
// actual control loop (Fig. 5).
func TestSettlesHigherWithReduction(t *testing.T) {
	v := units.Volt(1.25)
	base, _ := run(newLoop(t, "P0C3", 0, 4600), 500, v)
	tuned, _ := run(newLoop(t, "P0C3", 8, 4600), 500, v)
	if tuned <= base+50 {
		t.Errorf("8-step reduction settled at %v, base %v — expected a large gain", tuned, base)
	}
}

// TestTracksVoltageDroop: a sustained supply sag lowers the settled
// frequency; recovery restores it.
func TestTracksVoltageDroop(t *testing.T) {
	l := newLoop(t, "P0C1", 2, 4600)
	fHigh, _ := run(l, 400, 1.25)
	fLow, _ := run(l, 400, 1.21)
	if fLow >= fHigh-10 {
		t.Errorf("frequency did not track 40 mV sag: %v → %v", fHigh, fLow)
	}
	fBack, _ := run(l, 400, 1.25)
	if math.Abs(float64(fBack-fHigh)) > 2 {
		t.Errorf("did not recover after droop: %v vs %v", fBack, fHigh)
	}
}

// TestEmergencyResponse: a deep fast droop triggers violations and
// clock gating, and the loop pulls frequency down hard.
func TestEmergencyResponse(t *testing.T) {
	l := newLoop(t, "P0C4", 6, 4600)
	before, _ := run(l, 400, 1.25)
	if r := l.Step(1.08); r.Units >= 0 { // catastrophic instantaneous sag
		t.Errorf("deep droop produced no violation (margin %d units)", r.Units)
	}
	if l.Freq() >= before {
		t.Error("emergency response did not cut frequency")
	}
}

func TestNoViolationsInSteadyState(t *testing.T) {
	l := newLoop(t, "P0C2", 1, 4600)
	if _, violations := run(l, 500, 1.25); violations != 0 {
		t.Errorf("steady state produced %d violations", violations)
	}
}

func TestFrequencyBounds(t *testing.T) {
	c := silicon.Reference().FindCore("P0C0")
	fmax := silicon.FMaxHW
	l := New(cpm.New(c), fmax+500)
	if l.Freq() != fmax {
		t.Errorf("start frequency %v not clamped to FMaxHW %v", l.Freq(), fmax)
	}
	run(l, 300, 1.25)
	if l.Freq() > fmax || l.Freq() < 1000 {
		t.Errorf("loop escaped bounds: %v", l.Freq())
	}
}

// TestStepSlewLimits holds every Step, over a sweep of supplies and
// start frequencies on the reference cores, to the loop's fixed
// response: up by at most 8 MHz; down by at most 40 MHz while the
// margin reading is non-negative; down by exactly 240 MHz on a
// violation unless the 1,000 MHz floor clamps it; and always within
// [1,000 MHz, FMaxHW]. Each regime, the floor clamp included, must
// occur in the sweep.
func TestStepSlewLimits(t *testing.T) {
	var ups, downs, violations, floored int
	fmax := silicon.FMaxHW
	for _, c := range silicon.Reference().AllCores() {
		for _, v := range []units.Volt{0.5, 0.9, 1.1, 1.25, 1.3} {
			for _, start := range []units.MHz{500, 1000, 1100, 2500, 4200, 4600, 5200, fmax, 7000} {
				l := New(cpm.New(c), start)
				for i := 0; i < 60; i++ {
					before := l.Freq()
					r := l.Step(v)
					after := l.Freq()
					var bad string
					switch {
					case after < 1000 || after > fmax:
						bad = fmt.Sprintf("outside [1000 MHz, %v]", fmax)
					case r.Units < 0:
						violations++
						want := before - 240
						if want < 1000 {
							want = 1000
							floored++
						}
						if after != want {
							bad = fmt.Sprintf("violation moved the clock to %v, want %v", after, want)
						}
					case after > before+8:
						bad = "rose by more than 8 MHz"
					case after < before-40:
						bad = "fell by more than 40 MHz on a non-negative margin"
					case after > before:
						ups++
					case after < before:
						downs++
					}
					if bad != "" {
						t.Fatalf("%s at %v from %v, step %d (%v → %v, margin %d units): %s",
							c.Label, v, start, i, before, after, r.Units, bad)
					}
				}
			}
		}
	}
	if ups == 0 || downs == 0 || violations == 0 || floored == 0 {
		t.Errorf("sweep missed a regime: %d rises, %d falls, %d violations (%d at the floor)",
			ups, downs, violations, floored)
	}
	t.Logf("%d rises, %d falls, %d violations (%d at the floor)", ups, downs, violations, floored)
}

// TestSettlePointMatchesSiliconModel: the analytic shortcut used by the
// steady-state solver equals the silicon profile's settled frequency.
func TestSettlePointMatchesSiliconModel(t *testing.T) {
	c := silicon.Reference().FindCore("P1C6")
	for red := 0; red <= 6; red++ {
		l := newLoop(t, "P1C6", red, 4600)
		for _, v := range []units.Volt{1.25, 1.22, 1.19} {
			want, err := c.SettledFreq(red, v)
			if err != nil {
				t.Fatal(err)
			}
			if got := l.SettlePoint(v); math.Abs(float64(got-want)) > 1e-6 {
				t.Errorf("red=%d v=%v: settle point %v, want %v", red, v, got, want)
			}
		}
	}
}
