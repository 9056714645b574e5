package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCycleTimeKnownValues(t *testing.T) {
	cases := []struct {
		f    MHz
		want Picosecond
	}{
		{4200, 238.0952380952381},
		{4600, 217.39130434782606},
		{5000, 200},
		{1000, 1000},
	}
	for _, c := range cases {
		got := c.f.CycleTime()
		if math.Abs(float64(got-c.want)) > 1e-9 {
			t.Errorf("CycleTime(%v) = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestCycleTimeNonPositive(t *testing.T) {
	if got := MHz(0).CycleTime(); got != 0 {
		t.Errorf("CycleTime(0) = %v, want 0", got)
	}
	if got := MHz(-100).CycleTime(); got != 0 {
		t.Errorf("CycleTime(-100) = %v, want 0", got)
	}
	if got := Picosecond(0).Frequency(); got != 0 {
		t.Errorf("Frequency(0) = %v, want 0", got)
	}
	if got := Picosecond(-5).Frequency(); got != 0 {
		t.Errorf("Frequency(-5) = %v, want 0", got)
	}
}

// TestCycleFrequencyRoundTrip: CycleTime and Frequency are inverses on
// the positive axis.
func TestCycleFrequencyRoundTrip(t *testing.T) {
	prop := func(raw uint16) bool {
		f := MHz(100 + float64(raw%9000)) // 100..9100 MHz
		back := f.CycleTime().Frequency()
		return math.Abs(float64(back-f)) < 1e-6*float64(f)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMillivolts(t *testing.T) {
	if got := Volt(1.25).Millivolts(); got != 1250 {
		t.Errorf("Millivolts = %g, want 1250", got)
	}
}

func TestGHz(t *testing.T) {
	if got := MHz(4200).GHz(); got != 4.2 {
		t.Errorf("GHz = %g, want 4.2", got)
	}
}

func TestClamp(t *testing.T) {
	if got := MHz(5000).Clamp(1000, 4600); got != 4600 {
		t.Errorf("clamp high = %v", got)
	}
	if got := MHz(500).Clamp(1000, 4600); got != 1000 {
		t.Errorf("clamp low = %v", got)
	}
	if got := MHz(4000).Clamp(1000, 4600); got != 4000 {
		t.Errorf("clamp mid = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	if got := Max(MHz(1), MHz(2)); got != 2 {
		t.Errorf("Max = %v", got)
	}
	if got := Min(Watt(3), Watt(2)); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(Picosecond(-1), Picosecond(-2)); got != -1 {
		t.Errorf("Max negative = %v", got)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		s    string
		want string
	}{
		{MHz(4600).String(), "4600 MHz"},
		{Volt(1.25).String(), "1.250 V"},
		{Watt(160).String(), "160.0 W"},
		{Picosecond(217.4).String(), "217.4 ps"},
		{Celsius(70).String(), "70.0 °C"},
	}
	for _, c := range cases {
		if c.s != c.want {
			t.Errorf("String = %q, want %q", c.s, c.want)
		}
	}
}
