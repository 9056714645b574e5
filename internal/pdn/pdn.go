// Package pdn models the shared power-delivery network of one processor:
// the off-chip VRM, the loadline (DC IR drop across the delivery path),
// and the second-order transient response that produces di/dt droops.
//
// Two effects matter to ATM (Sec. I, Sec. VII-B):
//
//   - the DC voltage drop V = Vvrm − R·I is a *slow* effect the control
//     loop tracks perfectly — it converts chip power into lower supply
//     and hence lower settled frequency (the paper's Eq. 1);
//   - di/dt droops are *fast* events; the portion faster than the loop's
//     response time is uncovered and eats directly into the timing
//     margin — the failure mechanism of aggressively fine-tuned ATM.
package pdn

import (
	"math"

	"repro/internal/units"
)

// The network's transient response is fixed by the POWER7+ package
// and die; the constants are typed, so every operation of an expression
// over them rounds to float64 as it would on a variable.
const (
	// ResonantHz is the first-droop resonance of the package/die
	// network (tens of MHz on server parts).
	ResonantHz float64 = 90e6
	// DampingZeta is the damping ratio of the second-order response.
	DampingZeta float64 = 0.28
	// PeakImpedanceOhms converts a synchronized current step into the
	// first-droop peak magnitude.
	PeakImpedanceOhms float64 = 0.0011
	// LoopResponseNs is the ATM control loop's round-trip response
	// time; droop content faster than this is uncovered.
	LoopResponseNs float64 = 1.2
)

// Params is one processor's DC delivery path: the two values the
// program changes at run time. The undervolting controller lowers VNom,
// and lifetime drift ages the loadline.
type Params struct {
	// VNom is the VRM output setpoint.
	VNom units.Volt
	// LoadlineOhms is the effective DC resistance between the VRM and
	// the on-chip grid. ≈0.45 mΩ yields the paper's ≈2 MHz/W Eq. 1
	// slope at the POWER7+ operating point.
	LoadlineOhms float64
}

// DefaultParams returns the delivery path used for the POWER7+ model.
func DefaultParams() Params {
	return Params{
		VNom:         1.25, // re-pointed by CalibrateVRM
		LoadlineOhms: 0.00045,
	}
}

// SteadyVoltage returns the on-chip supply under total chip power P:
// V = Vnom − R·I with I ≈ P/Vnom. This is the loadline the Eq. 1
// frequency predictor linearizes.
//
//atm:hotpath
func (p Params) SteadyVoltage(power units.Watt) units.Volt {
	i := float64(power) / float64(p.VNom)
	v := float64(p.VNom) - p.LoadlineOhms*i
	if v < 0 {
		v = 0
	}
	return units.Volt(v)
}

// CalibrateVRM returns a copy of p with VNom raised so that the on-chip
// supply equals target at the given reference power (the paper runs the
// 4.2 GHz p-state with Vdd pinned at 1.25 V on-die under light load).
func (p Params) CalibrateVRM(target units.Volt, refPower units.Watt) Params {
	// Solve Vnom − R·P/Vnom = target ⇒ Vnom = (target + √(target² + 4RP))/2.
	t := float64(target)
	rp := p.LoadlineOhms * float64(refPower)
	p.VNom = units.Volt((t + math.Sqrt(t*t+4*rp)) / 2)
	return p
}

// StepResponse returns the transient voltage deviation t seconds after a
// synchronized load-current step of deltaI amperes (second-order,
// underdamped). Negative values are droops. The deviation decays to the
// new DC point, which the loadline term handles separately; this is the
// AC part only.
//
//atm:hotpath
func StepResponse(deltaI float64, t float64) units.Volt {
	if t < 0 {
		return 0
	}
	wn := 2 * math.Pi * ResonantHz
	zeta := DampingZeta
	wd := wn * math.Sqrt(1-zeta*zeta)
	// Peak-normalized underdamped second-order response.
	envelope := math.Exp(-zeta * wn * t)
	osc := math.Sin(wd * t)
	return units.Volt(-deltaI * PeakImpedanceOhms * envelope * osc / math.Sqrt(1-zeta*zeta))
}

// FirstDroopPeak returns the magnitude of the worst (first) droop for a
// synchronized current step of deltaI amperes.
//
//atm:hotpath
func FirstDroopPeak(deltaI float64) units.Volt {
	// Peak of the normalized response occurs at wd·t = atan(√(1−ζ²)/ζ).
	zeta := DampingZeta
	phi := math.Atan(math.Sqrt(1-zeta*zeta) / zeta)
	peak := math.Exp(-zeta * phi / math.Sqrt(1-zeta*zeta)) // e^(−ζωn·tpeak)
	return units.Volt(deltaI * PeakImpedanceOhms * peak)
}

// UncoveredFraction returns the share of a droop of the given duration
// that the ATM loop cannot track: droops much faster than the loop
// response are fully uncovered, much slower ones fully covered.
//
//atm:hotpath
func UncoveredFraction(droopNs float64) float64 {
	if droopNs <= 0 {
		return 1
	}
	// Single-pole rolloff around the loop response time.
	return 1 / (1 + droopNs/LoopResponseNs)
}

// SyncFactor quantifies how much worse a droop gets when n cores step
// their current simultaneously (the voltage-virus mechanism of
// Sec. VII-A): aligned steps superpose at the shared grid with
// diminishing — but never vanishing — returns.
//
//atm:hotpath
func SyncFactor(n int) float64 {
	if n <= 1 {
		return 1
	}
	return math.Sqrt(float64(n)) * (1 + 0.08*math.Log(float64(n)))
}
