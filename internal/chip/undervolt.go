package chip

import (
	"fmt"

	"repro/internal/silicon"
	"repro/internal/units"
)

// The paper's ATM platform has three parts; the third — the off-chip
// voltage controller — is disabled in the paper's experiments ("we
// convert all of ATM's reclaimed timing margin into frequency and keep
// Vdd unchanged", Sec. II). This file implements it anyway, as the
// library's power-saving mode: the controller reads the sliding-window
// average frequency of the *slowest* core of a chip and lowers the
// chip-wide Vdd as far as the user-specified frequency target allows.
//
// It exists both for completeness (the POWER7 EnergyScale feature the
// platform ships with, Lefurgy et al. MICRO'11) and because it
// demonstrates the flip side of fine-tuning: the same reclaimed margin
// that ran cores at 5 GHz can instead run them at 4.2 GHz at a much
// lower voltage — and a fine-tuned chip undervolts further than the
// default one, but only as far as its *slowest* core allows, which is
// exactly the restriction overclocking sidesteps (Sec. II).

// UndervoltResult reports one chip's power-saving operating point.
type UndervoltResult struct {
	Chip string
	// Target is the user-specified frequency floor.
	Target units.MHz
	// VddReduction is how far the controller lowered the VRM setpoint.
	VddReduction units.Volt
	// Supply is the resulting on-die voltage.
	Supply units.Volt
	// SlowestCore is the core that limited the reduction.
	SlowestCore string
	// SlowestFreq is that core's settled frequency (≥ Target).
	SlowestFreq units.MHz
	// PowerBefore and PowerAfter are the chip's total power at the
	// original and reduced setpoints (same workloads).
	PowerBefore units.Watt
	PowerAfter  units.Watt
}

// SavingsFrac returns the fractional chip-power saving.
func (r UndervoltResult) SavingsFrac() float64 {
	if r.PowerBefore <= 0 {
		return 0
	}
	return 1 - float64(r.PowerAfter)/float64(r.PowerBefore)
}

// SolveUndervolt finds the largest chip-wide Vdd reduction that keeps
// every (ungated, ATM-mode) core of the chip at or above the target
// frequency under the current workloads, and returns the operating
// point. The machine is not modified; the result describes what the
// off-chip controller would converge to.
func (m *Machine) SolveUndervolt(chipLabel string, target units.MHz) (UndervoltResult, error) {
	var c *Chip
	for _, ch := range m.Chips {
		if ch.Profile.Label == chipLabel {
			c = ch
			break
		}
	}
	if c == nil {
		return UndervoltResult{}, fmt.Errorf("chip: no chip %q", chipLabel)
	}
	if target <= 0 || target > silicon.FMaxHW {
		return UndervoltResult{}, fmt.Errorf("chip: undervolt target %v out of range", target)
	}

	base, err := m.solveChip(c)
	if err != nil {
		return UndervoltResult{}, err
	}
	if f, label := slowestATM(base); f < target {
		return UndervoltResult{}, fmt.Errorf(
			"chip: %s already below target at full voltage (%v on %s)", chipLabel, f, label)
	}

	// Bisect the VRM reduction: the slowest core's frequency decreases
	// monotonically with the setpoint, so the feasible region is an
	// interval.
	origPDN := c.PDN
	defer func() { c.PDN = origPDN }()
	lo, hi := units.Volt(0), units.Volt(0.40)
	var final ChipState
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		c.PDN = origPDN
		c.PDN.VNom = origPDN.VNom - mid
		st, err := m.solveChip(c)
		if err != nil {
			return UndervoltResult{}, err
		}
		if f, _ := slowestATM(st); f >= target {
			lo = mid
			final = st
		} else {
			hi = mid
		}
	}
	if final.Label == "" {
		// Even the smallest probed reduction failed; report zero.
		final = base
		lo = 0
	}
	slowF, slowL := slowestATM(final)
	return UndervoltResult{
		Chip:         chipLabel,
		Target:       target,
		VddReduction: lo,
		Supply:       final.Supply,
		SlowestCore:  slowL,
		SlowestFreq:  slowF,
		PowerBefore:  base.Power,
		PowerAfter:   final.Power,
	}, nil
}

// slowestATM returns the lowest frequency (and its core) among the
// chip's ungated ATM cores — the quantity the off-chip controller's
// 32 ms sliding window tracks. Static-mode cores are excluded: their
// p-state is voltage-guaranteed by the static margin.
func slowestATM(st ChipState) (units.MHz, string) {
	var (
		f     units.MHz = 1 << 20
		label string
	)
	for _, cs := range st.Cores {
		if cs.Gated || cs.Mode != ModeATM {
			continue
		}
		if cs.Freq < f {
			f = cs.Freq
			label = cs.Label
		}
	}
	if label == "" {
		return 0, ""
	}
	return f, label
}
