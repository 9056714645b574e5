// Package units defines the typed physical quantities used throughout the
// ATM simulator: frequency, voltage, power, delay and temperature.
//
// Using distinct named types keeps the signal-processing code honest — a
// voltage can never be silently added to a delay — while staying cheap:
// every type is an underlying float64 and converts explicitly.
//
// Conventions:
//   - frequency is in megahertz (the paper quotes MHz everywhere),
//   - voltage in volts,
//   - power in watts,
//   - delay in picoseconds (one 4.2 GHz cycle is ~238 ps),
//   - temperature in degrees Celsius.
package units

import "fmt"

// MHz is a clock frequency in megahertz.
type MHz float64

// Volt is an electric potential in volts.
type Volt float64

// Watt is a power in watts.
type Watt float64

// Picosecond is a time span in picoseconds. All path delays, cycle times
// and inserted-delay quanta in the CPM model are expressed in ps.
type Picosecond float64

// Celsius is a temperature in degrees Celsius.
type Celsius float64

// Millivolts returns the voltage expressed in millivolts.
func (v Volt) Millivolts() float64 { return float64(v) * 1000 }

// GHz returns the frequency expressed in gigahertz.
func (f MHz) GHz() float64 { return float64(f) / 1000 }

// CycleTime returns the duration of one clock cycle at frequency f.
// A zero or negative frequency yields an infinite-like zero guard: the
// caller is expected to validate frequencies, so we return 0 to make the
// misuse obvious in tests rather than propagate NaNs.
func (f MHz) CycleTime() Picosecond {
	if f <= 0 {
		return 0
	}
	// f MHz ⇒ period = 1/(f·1e6) s = 1e12/(f·1e6) ps = 1e6/f ps.
	return Picosecond(1e6 / float64(f))
}

// Frequency returns the clock frequency whose period is d.
// The inverse of MHz.CycleTime. A non-positive delay returns 0.
func (d Picosecond) Frequency() MHz {
	if d <= 0 {
		return 0
	}
	return MHz(1e6 / float64(d))
}

// String implements fmt.Stringer with the unit suffix the paper uses.
func (f MHz) String() string { return fmt.Sprintf("%.0f MHz", float64(f)) }

// String implements fmt.Stringer.
func (v Volt) String() string { return fmt.Sprintf("%.3f V", float64(v)) }

// String implements fmt.Stringer.
func (w Watt) String() string { return fmt.Sprintf("%.1f W", float64(w)) }

// String implements fmt.Stringer.
func (d Picosecond) String() string { return fmt.Sprintf("%.1f ps", float64(d)) }

// String implements fmt.Stringer.
func (c Celsius) String() string { return fmt.Sprintf("%.1f °C", float64(c)) }

// Clamp returns f bounded to the closed interval [lo, hi].
func (f MHz) Clamp(lo, hi MHz) MHz {
	if f < lo {
		return lo
	}
	if f > hi {
		return hi
	}
	return f
}

// Max returns the larger of a and b.
func Max[T MHz | Volt | Watt | Picosecond | Celsius](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min[T MHz | Volt | Watt | Picosecond | Celsius](a, b T) T {
	if a < b {
		return a
	}
	return b
}
