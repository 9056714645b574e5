package chip

import (
	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// The electrical power constants of one processor. Calibration targets
// (Sec. VII-A): the 32-thread daxpy + issue-throttle virus raises chip
// power to ≈160 W and die temperature to 70 °C; an idle chip draws
// ≈55–60 W. The constants are typed, so every operation of an
// expression over them rounds to float64 as it would on a variable.
const (
	// UncoreW is the chip's non-core power (nest, memory controllers,
	// IO, clock distribution).
	UncoreW units.Watt = 24
	// CoreLeakW is one core's leakage at ambient temperature; it scales
	// with junction temperature via thermal.Params.LeakageScale.
	CoreLeakW units.Watt = 1.9
	// CdynMaxWPerGHz is the dynamic power of a CdynRel = 1.0 workload
	// (daxpy) per GHz at VRefForCdyn. The V² scaling is applied
	// relative to VRefForCdyn.
	CdynMaxWPerGHz units.Watt = 3.3
	// GatedLeakFrac is the fraction of leakage a power-gated core
	// retains.
	GatedLeakFrac float64 = 0.06
	// VRefForCdyn is the voltage CdynMaxWPerGHz is quoted at.
	VRefForCdyn units.Volt = 1.25
)

// CorePower returns one core's power running workload w at frequency f
// and supply v, with junction temperature t.
func CorePower(w workload.Profile, f units.MHz, v units.Volt,
	tp thermal.Params, t units.Celsius, gated bool) units.Watt {
	vr := float64(v) / float64(VRefForCdyn)
	return corePowerAt(w.CdynRel, f, vr, coreLeak(tp, t, vr), gated)
}

// coreLeak returns one ungated core's leakage at voltage ratio vr and
// junction temperature t.
func coreLeak(tp thermal.Params, t units.Celsius, vr float64) float64 {
	// Sub-threshold leakage falls steeply with supply (DIBL); a cubic
	// dependence is the usual compact-model linearization at this
	// operating range.
	return float64(CoreLeakW) * tp.LeakageScale(t) * vr * vr * vr
}

// corePowerAt returns the power of one core with relative dynamic
// capacitance cdyn at frequency f, given its chip's voltage ratio vr
// and ungated core leakage leak.
func corePowerAt(cdyn float64, f units.MHz, vr, leak float64, gated bool) units.Watt {
	if gated {
		return units.Watt(leak * GatedLeakFrac)
	}
	dyn := cdyn * float64(CdynMaxWPerGHz) * vr * vr * f.GHz()
	return units.Watt(leak + dyn)
}

// DynCurrentAmps returns the dynamic supply current of one core — the
// quantity whose synchronized steps drive di/dt droops.
func DynCurrentAmps(w workload.Profile, f units.MHz, v units.Volt) float64 {
	if v <= 0 {
		return 0
	}
	vr := float64(v) / float64(VRefForCdyn)
	dyn := w.CdynRel * float64(CdynMaxWPerGHz) * vr * vr * f.GHz()
	return dyn / float64(v)
}
