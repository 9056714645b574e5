// Package silicon models the manufactured silicon of a POWER7+-class
// multicore: per-core critical-path speed, the programmable CPM
// inserted-delay hardware with its non-linear step graduation, the
// manufacturer's test-time preset calibration, and the per-core /
// per-workload timing-failure envelope.
//
// Two chip sources are provided:
//
//   - Reference() — a profile calibrated to the paper's published
//     measurements of the two POWER7+ chips (Table I limits, Fig. 4b
//     preset-delay spread, Fig. 5/7 frequency levels), so the
//     characterization methodology reproduces the paper's tables;
//   - Generate() — a forward Monte-Carlo process-variation model that
//     produces fresh plausible chips, showing the method generalizes.
//
// All delays are expressed in picoseconds *at the reference voltage*;
// voltage scaling is applied uniformly through the alpha-power-law
// linearization Scale(V) (see Params.Scale).
package silicon

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// Params holds the chip-level electrical constants shared by every core.
// The zero value is not useful; use DefaultParams.
type Params struct {
	// VRef is the nominal supply of the 4.2 GHz p-state the paper runs
	// ATM overclocking at (Sec. II: "We let ATM boost each core's
	// frequency at Vdd 1.25 V").
	VRef units.Volt

	// VTh is the effective transistor threshold used by the
	// linearized alpha-power delay model: delay ∝ 1/(V − VTh).
	VTh units.Volt

	// InvPs is the delay of one inverter of the CPM's output inverter
	// chain at VRef — the quantum of one margin "unit".
	InvPs units.Picosecond

	// ThetaUnits is the DPLL's margin threshold in inverter units: the
	// loop slews frequency so the measured slack settles at this value.
	ThetaUnits int

	// MaxTaps is the number of selectable taps of the CPM inserted-delay
	// chain. Configurations are tap indices in [0, MaxTaps].
	MaxTaps int

	// FDefault is the frequency the manufacturer's preset calibration
	// targets for every core under default ATM at idle (~4.6 GHz).
	FDefault units.MHz

	// FDefaultJitterMHz is the small per-core spread around FDefault that
	// survives calibration (presets are quantized to whole taps).
	FDefaultJitterMHz float64

	// FStatic is the chip-wide static-margin frequency (the 4.2 GHz
	// p-state used as the paper's baseline).
	FStatic units.MHz

	// FMaxHW is the DPLL's hard upper slew limit.
	FMaxHW units.MHz

	// StaticNoiseGuard is the worst-case voltage variation a *static*
	// margin must provision for (di/dt + DC drop, each ~3% of Vdd,
	// Sec. I). Used only to estimate the per-core static ⟨v,f⟩
	// setpoints of Fig. 1.
	StaticNoiseGuard units.Volt

	// IdleDroopFrac is the fractional delay stress of the background-OS
	// idle environment: the uncovered fast-droop tail present even with
	// no application running.
	IdleDroopFrac float64

	// NumCPMSites is the number of CPMs per core (IFU, ISU, FXU, FPU,
	// LLC on POWER7+).
	NumCPMSites int
}

// DefaultParams returns the constants used throughout the reproduction.
// They are chosen so the emergent behaviour matches the paper's reported
// magnitudes: one inserted-delay step moves frequency by ~30–200 MHz
// (Fig. 5), the Eq. 1 slope is ≈2 MHz/W, and idle limits push fast cores
// past 5 GHz.
func DefaultParams() Params {
	return Params{
		VRef:              1.25,
		VTh:               0.35,
		InvPs:             2.5,
		ThetaUnits:        2,
		MaxTaps:           24,
		FDefault:          4600,
		FDefaultJitterMHz: 12,
		FStatic:           4200,
		FMaxHW:            5500,
		StaticNoiseGuard:  0.118, // di/dt + DC drop (~3% of Vdd each) + temp/aging test guardband
		IdleDroopFrac:     0.0055,
		NumCPMSites:       5,
	}
}

// Scale returns the delay multiplier at supply voltage v relative to
// VRef: path delays at v are (delay at VRef) × Scale(v). It is the
// linearized alpha-power law g(v) = (VRef−VTh)/(v−VTh); Scale(VRef) = 1,
// and Scale grows as the supply sags. It and SettleFreqAtScale take a
// pointer, so an inlined call in a solver loop reads two fields instead
// of copying the whole parameter set.
func (p *Params) Scale(v units.Volt) float64 {
	den := float64(v - p.VTh)
	if den <= 1e-6 {
		den = 1e-6
	}
	return float64(p.VRef-p.VTh) / den
}

// ThetaPs returns the threshold slack the DPLL maintains, in ps at VRef.
func (p Params) ThetaPs() units.Picosecond {
	return units.Picosecond(float64(p.ThetaUnits)) * p.InvPs
}

// SettleFreq converts a total guarded CPM path (CPM delay + threshold
// slack, in ps at VRef) into the frequency the DPLL settles at under
// supply voltage v, clamped to the hardware ceiling.
func (p Params) SettleFreq(guard units.Picosecond, v units.Volt) units.MHz {
	return p.SettleFreqAtScale(guard, p.Scale(v))
}

// SettleFreqAtScale is SettleFreq at a supply whose delay multiplier
// Scale(v) the caller already holds, so cores sharing one supply
// compute it once.
func (p *Params) SettleFreqAtScale(guard units.Picosecond, scale float64) units.MHz {
	if guard <= 0 {
		return p.FMaxHW
	}
	f := units.Picosecond(float64(guard) * scale).Frequency()
	return f.Clamp(0, p.FMaxHW)
}

// Validate reports whether the parameter set is self-consistent.
func (p Params) Validate() error {
	switch {
	case p.VRef <= p.VTh:
		return fmt.Errorf("silicon: VRef %v must exceed VTh %v", p.VRef, p.VTh)
	case p.InvPs <= 0:
		return fmt.Errorf("silicon: InvPs must be positive, got %v", p.InvPs)
	case p.ThetaUnits < 1:
		return fmt.Errorf("silicon: ThetaUnits must be ≥ 1, got %d", p.ThetaUnits)
	case p.MaxTaps < 1:
		return fmt.Errorf("silicon: MaxTaps must be ≥ 1, got %d", p.MaxTaps)
	case p.FDefault <= p.FStatic:
		return fmt.Errorf("silicon: FDefault %v must exceed FStatic %v", p.FDefault, p.FStatic)
	case p.FMaxHW <= p.FDefault:
		return fmt.Errorf("silicon: FMaxHW %v must exceed FDefault %v", p.FMaxHW, p.FDefault)
	case p.NumCPMSites < 1:
		return fmt.Errorf("silicon: NumCPMSites must be ≥ 1, got %d", p.NumCPMSites)
	case math.IsNaN(p.IdleDroopFrac) || p.IdleDroopFrac < 0:
		return fmt.Errorf("silicon: IdleDroopFrac must be ≥ 0, got %g", p.IdleDroopFrac)
	}
	return nil
}
