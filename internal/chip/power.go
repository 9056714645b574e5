package chip

import (
	"fmt"
	"math"

	"repro/internal/thermal"
	"repro/internal/units"
	"repro/internal/workload"
)

// PowerModel holds the electrical power constants of one processor.
//
// Calibration targets (Sec. VII-A): the 32-thread daxpy + issue-throttle
// virus raises chip power to ≈160 W and die temperature to 70 °C; an
// idle chip draws ≈55–60 W.
type PowerModel struct {
	// UncoreW is the chip's non-core power (nest, memory controllers,
	// IO, clock distribution).
	UncoreW units.Watt
	// CoreLeakW is one core's leakage at ambient temperature; it scales
	// with junction temperature via thermal.Params.LeakageScale.
	CoreLeakW units.Watt
	// CdynMaxWPerGHz is the dynamic power of a CdynRel = 1.0 workload
	// (daxpy) per GHz at VRef. The V² scaling is applied relative to
	// VRef.
	CdynMaxWPerGHz units.Watt
	// GatedLeakFrac is the fraction of leakage a power-gated core
	// retains.
	GatedLeakFrac float64
	// VRefForCdyn is the voltage CdynMaxWPerGHz is quoted at.
	VRefForCdyn units.Volt
}

// DefaultPowerModel returns the constants used for the POWER7+ model.
func DefaultPowerModel() PowerModel {
	return PowerModel{
		UncoreW:        24,
		CoreLeakW:      1.9,
		CdynMaxWPerGHz: 3.3,
		GatedLeakFrac:  0.06,
		VRefForCdyn:    1.25,
	}
}

// Validate reports whether the model is usable: finite powers, the
// uncore and leakage non-negative, Cdyn and VRefForCdyn positive, and
// GatedLeakFrac inside [0, 1]. Each test is written so that NaN fails
// it.
func (pm PowerModel) Validate() error {
	switch {
	case !(pm.UncoreW >= 0) || math.IsInf(float64(pm.UncoreW), 1):
		return fmt.Errorf("chip: UncoreW %v, want non-negative and finite", pm.UncoreW)
	case !(pm.CoreLeakW >= 0) || math.IsInf(float64(pm.CoreLeakW), 1):
		return fmt.Errorf("chip: CoreLeakW %v, want non-negative and finite", pm.CoreLeakW)
	case !(pm.CdynMaxWPerGHz > 0) || math.IsInf(float64(pm.CdynMaxWPerGHz), 1):
		return fmt.Errorf("chip: CdynMaxWPerGHz %v, want positive and finite", pm.CdynMaxWPerGHz)
	case !(pm.GatedLeakFrac >= 0 && pm.GatedLeakFrac <= 1):
		return fmt.Errorf("chip: GatedLeakFrac %g outside [0,1]", pm.GatedLeakFrac)
	case !(pm.VRefForCdyn > 0) || math.IsInf(float64(pm.VRefForCdyn), 1):
		return fmt.Errorf("chip: VRefForCdyn %v, want positive and finite", pm.VRefForCdyn)
	}
	return nil
}

// CorePower returns one core's power running workload w at frequency f
// and supply v, with junction temperature t.
func (pm PowerModel) CorePower(w workload.Profile, f units.MHz, v units.Volt,
	tp thermal.Params, t units.Celsius, gated bool) units.Watt {
	vr := float64(v) / float64(pm.VRefForCdyn)
	return pm.corePowerAt(w.CdynRel, f, vr, pm.coreLeak(tp, t, vr), gated)
}

// coreLeak returns one ungated core's leakage at voltage ratio vr and
// junction temperature t.
func (pm PowerModel) coreLeak(tp thermal.Params, t units.Celsius, vr float64) float64 {
	// Sub-threshold leakage falls steeply with supply (DIBL); a cubic
	// dependence is the usual compact-model linearization at this
	// operating range.
	return float64(pm.CoreLeakW) * tp.LeakageScale(t) * vr * vr * vr
}

// corePowerAt returns the power of one core with relative dynamic
// capacitance cdyn at frequency f, given its chip's voltage ratio vr
// and ungated core leakage leak.
func (pm PowerModel) corePowerAt(cdyn float64, f units.MHz, vr, leak float64, gated bool) units.Watt {
	if gated {
		return units.Watt(leak * pm.GatedLeakFrac)
	}
	dyn := cdyn * float64(pm.CdynMaxWPerGHz) * vr * vr * f.GHz()
	return units.Watt(leak + dyn)
}

// DynCurrentAmps returns the dynamic supply current of one core — the
// quantity whose synchronized steps drive di/dt droops.
func (pm PowerModel) DynCurrentAmps(w workload.Profile, f units.MHz, v units.Volt) float64 {
	if v <= 0 {
		return 0
	}
	vr := float64(v) / float64(pm.VRefForCdyn)
	dyn := w.CdynRel * float64(pm.CdynMaxWPerGHz) * vr * vr * f.GHz()
	return dyn / float64(v)
}
