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
// linearization Scale(V).
package silicon

import "repro/internal/units"

// The chip-level electrical constants every core shares. The paper
// measures one platform, so they are fixed; they are chosen so the
// emergent behaviour matches its reported magnitudes: one
// inserted-delay step moves frequency by ~30–200 MHz (Fig. 5), the
// Eq. 1 slope is ≈2 MHz/W, and idle limits push fast cores past 5 GHz.
// Each is typed, so every operation of an expression over them rounds
// to float64 as it would on a variable.
const (
	// VRef is the nominal supply of the 4.2 GHz p-state the paper runs
	// ATM overclocking at (Sec. II: "We let ATM boost each core's
	// frequency at Vdd 1.25 V").
	VRef units.Volt = 1.25

	// VTh is the effective transistor threshold used by the
	// linearized alpha-power delay model: delay ∝ 1/(V − VTh).
	VTh units.Volt = 0.35

	// InvPs is the delay of one inverter of the CPM's output inverter
	// chain at VRef — the quantum of one margin "unit".
	InvPs units.Picosecond = 2.5

	// ThetaUnits is the DPLL's margin threshold in inverter units: the
	// loop slews frequency so the measured slack settles at this value.
	ThetaUnits int = 2

	// ThetaPs is the threshold slack the DPLL maintains, in ps at VRef.
	ThetaPs = units.Picosecond(ThetaUnits) * InvPs

	// MaxTaps is the number of selectable taps of the CPM inserted-delay
	// chain. Configurations are tap indices in [0, MaxTaps].
	MaxTaps int = 24

	// FDefault is the frequency the manufacturer's preset calibration
	// targets for every core under default ATM at idle (~4.6 GHz).
	FDefault units.MHz = 4600

	// FDefaultJitterMHz is the small per-core spread around FDefault that
	// survives calibration (presets are quantized to whole taps).
	FDefaultJitterMHz float64 = 12

	// FStatic is the chip-wide static-margin frequency (the 4.2 GHz
	// p-state used as the paper's baseline).
	FStatic units.MHz = 4200

	// FMaxHW is the DPLL's hard upper slew limit.
	FMaxHW units.MHz = 5500

	// StaticNoiseGuard is the worst-case voltage variation a *static*
	// margin must provision for: di/dt + DC drop (each ~3% of Vdd,
	// Sec. I) plus a temperature/aging test guardband. Used only to
	// estimate the per-core static ⟨v,f⟩ setpoints of Fig. 1.
	StaticNoiseGuard units.Volt = 0.118

	// IdleDroopFrac is the fractional delay stress of the background-OS
	// idle environment: the uncovered fast-droop tail present even with
	// no application running.
	IdleDroopFrac float64 = 0.0055

	// NumCPMSites is the number of CPMs per core (IFU, ISU, FXU, FPU,
	// LLC on POWER7+).
	NumCPMSites int = 5
)

// Scale returns the delay multiplier at supply voltage v relative to
// VRef: path delays at v are (delay at VRef) × Scale(v). It is the
// linearized alpha-power law g(v) = (VRef−VTh)/(v−VTh); Scale(VRef) = 1,
// and Scale grows as the supply sags.
func Scale(v units.Volt) float64 {
	den := float64(v - VTh)
	if den <= 1e-6 {
		den = 1e-6
	}
	return float64(VRef-VTh) / den
}

// SettleFreq converts a total guarded CPM path (CPM delay + threshold
// slack, in ps at VRef) into the frequency the DPLL settles at under
// supply voltage v, clamped to the hardware ceiling.
func SettleFreq(guard units.Picosecond, v units.Volt) units.MHz {
	return SettleFreqAtScale(guard, Scale(v))
}

// SettleFreqAtScale is SettleFreq at a supply whose delay multiplier
// Scale(v) the caller already holds, so cores sharing one supply
// compute it once.
func SettleFreqAtScale(guard units.Picosecond, scale float64) units.MHz {
	if guard <= 0 {
		return FMaxHW
	}
	f := units.Picosecond(float64(guard) * scale).Frequency()
	return f.Clamp(0, FMaxHW)
}
