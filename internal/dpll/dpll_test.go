package dpll

import (
	"math"
	"strings"
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
	p := c.Params()
	l, err := New(m, DefaultConfig(p.ThetaUnits, p.FMaxHW), start)
	if err != nil {
		t.Fatal(err)
	}
	return l
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

func TestNewValidation(t *testing.T) {
	c := silicon.Reference().AllCores()[0]
	m := cpm.New(c)
	bad := []Config{
		{ThetaUnits: -1, UpSlewMHz: 1, DownSlewMHz: 1, EmergencyFactor: 1, FMin: 1, FMax: 2},
		{ThetaUnits: 2, UpSlewMHz: 0, DownSlewMHz: 1, EmergencyFactor: 1, FMin: 1, FMax: 2},
		{ThetaUnits: 2, UpSlewMHz: 1, DownSlewMHz: 1, EmergencyFactor: 0.5, FMin: 1, FMax: 2},
		{ThetaUnits: 2, UpSlewMHz: 1, DownSlewMHz: 1, EmergencyFactor: 1, FMin: 0, FMax: 2},
		{ThetaUnits: 2, UpSlewMHz: 1, DownSlewMHz: 1, EmergencyFactor: 1, FMin: 5, FMax: 2},
	}
	for i, cfg := range bad {
		if _, err := New(m, cfg, 4000); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestNewRejectsNonFinite sets each bound and slew field of the default
// config, in turn, to NaN, +Inf and −Inf: New must reject each with an
// error naming the field.
func TestNewRejectsNonFinite(t *testing.T) {
	c := silicon.Reference().AllCores()[0]
	m := cpm.New(c)
	p := c.Params()
	fields := []struct {
		name string
		set  func(*Config, float64)
	}{
		{"FMin", func(cfg *Config, v float64) { cfg.FMin = units.MHz(v) }},
		{"FMax", func(cfg *Config, v float64) { cfg.FMax = units.MHz(v) }},
		{"UpSlewMHz", func(cfg *Config, v float64) { cfg.UpSlewMHz = v }},
		{"DownSlewMHz", func(cfg *Config, v float64) { cfg.DownSlewMHz = v }},
		{"EmergencyFactor", func(cfg *Config, v float64) { cfg.EmergencyFactor = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := DefaultConfig(p.ThetaUnits, p.FMaxHW)
			f.set(&cfg, v)
			if _, err := New(m, cfg, 4000); err == nil || !strings.Contains(err.Error(), f.name) {
				t.Errorf("%s = %v: New error %v, want one naming %s", f.name, v, err, f.name)
			}
		}
	}
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
	m := cpm.New(c)
	cfg := DefaultConfig(c.Params().ThetaUnits, 4400)
	l, err := New(m, cfg, 6000)
	if err != nil {
		t.Fatal(err)
	}
	if l.Freq() != 4400 {
		t.Errorf("start frequency not clamped: %v", l.Freq())
	}
	run(l, 300, 1.25)
	if l.Freq() > 4400 || l.Freq() < cfg.FMin {
		t.Errorf("loop escaped bounds: %v", l.Freq())
	}
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
