package manage

import (
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/silicon"
	"repro/internal/units"
)

// planBalanced implements the Fig. 13 budget flow for the balanced
// objective: let the critical application just meet its QoS target and
// maximize background performance under that promise.
//
//  1. invert the critical application's performance predictor to the
//     frequency its QoS needs;
//  2. invert the critical core's Eq. 1 frequency predictor to the total
//     chip power budget that frequency allows;
//  3. walk candidate background settings from fastest to slowest
//     (fine-tuned ATM, then the DVFS ladder downward, then power
//     gating) and pick the first whose *estimated* chip power fits the
//     budget.
//
// The estimate uses the calibrated predictors and the power model — not
// the steady-state solver — because the real manager plans before it
// runs; Evaluate then measures the actual outcome.
func (mg *Manager) planBalanced(pair Pair, qosTarget float64) (Evaluation, error) {
	if !(qosTarget > 0) || math.IsInf(qosTarget, 1) {
		return Evaluation{}, fmt.Errorf("manage: balanced scheduling needs a positive QoS target")
	}
	cores := mg.fastestOnChip()
	criticalCore := cores[0]
	ev := Evaluation{
		Scenario:     ScenarioManagedBalanced,
		Pair:         pair,
		QoSTarget:    qosTarget,
		CriticalCore: criticalCore,
	}

	pp, ok := mg.Preds.Perf[pair.Critical.Name]
	if !ok {
		return Evaluation{}, fmt.Errorf("manage: no performance predictor for %s", pair.Critical.Name)
	}
	fNeed, ok := pp.FreqForPerf(1 + qosTarget)
	if !ok {
		return Evaluation{}, fmt.Errorf("manage: degenerate performance model for %s", pair.Critical.Name)
	}
	fp, ok := mg.Preds.Freq[criticalCore]
	if !ok {
		return Evaluation{}, fmt.Errorf("manage: no frequency predictor for %s", criticalCore)
	}
	budget, ok := fp.PowerForFreq(fNeed)
	if !ok {
		return Evaluation{}, fmt.Errorf("manage: degenerate frequency model for %s", criticalCore)
	}
	// The QoS-derived budget can exceed what the package may sustain;
	// the thermal envelope is the second, unconditional constraint.
	for _, c := range mg.M.Chips {
		if c.Profile.Label == mg.ChipLabel {
			if env := c.Thermal.MaxPower(); budget > env {
				budget = env
			}
		}
	}
	ev.PowerBudget = budget

	// Candidate background settings, fastest first.
	type candidate struct {
		name   string
		atm    bool
		pstate units.MHz
		gated  bool
	}
	cands := []candidate{{name: "fine-tuned ATM", atm: true}}
	for i := len(chip.PStates) - 1; i >= 0; i-- {
		ps := chip.PStates[i]
		cands = append(cands, candidate{
			name:   fmt.Sprintf("static %.1f GHz", ps.GHz()),
			pstate: ps,
		})
	}
	cands = append(cands, candidate{name: "power-gated", gated: true})

	chosen := cands[len(cands)-1]
	for _, cand := range cands {
		if mg.estimateChipPower(criticalCore, pair, cand.atm, cand.pstate, cand.gated) <= budget {
			chosen = cand
			break
		}
	}
	ev.BackgroundSetting = chosen.name

	// Apply the chosen plan.
	switch {
	case chosen.gated:
		if err := mg.configure(managedBG, criticalCore, pair, chip.PStateMin); err != nil {
			return Evaluation{}, err
		}
		for _, label := range mg.chipCores() {
			if label == criticalCore {
				continue
			}
			core, err := mg.M.Core(label)
			if err != nil {
				return Evaluation{}, err
			}
			core.SetGated(true)
		}
	case chosen.atm:
		if err := mg.configure(allDeployed, criticalCore, pair, 0); err != nil {
			return Evaluation{}, err
		}
		// allDeployed places the critical job on the slowest core by
		// convention; here the manager chose the fastest, so configure
		// explicitly: swap workloads accordingly.
		for _, label := range mg.chipCores() {
			core, err := mg.M.Core(label)
			if err != nil {
				return Evaluation{}, err
			}
			if label == criticalCore {
				core.SetWorkload(pair.Critical)
			} else {
				core.SetWorkload(pair.Background)
			}
		}
	default:
		if err := mg.configure(managedBG, criticalCore, pair, chosen.pstate); err != nil {
			return Evaluation{}, err
		}
	}
	return ev, nil
}

// estimateChipPower is the manager's planning estimate of total chip
// power for one background setting: the critical core at its deployed
// frequency, each background core at the candidate clock, all through
// the power model at nominal supply (a deliberately slightly
// conservative estimate — the planner must not overshoot the budget).
func (mg *Manager) estimateChipPower(criticalCore string, pair Pair,
	bgATM bool, bgPState units.MHz, bgGated bool) units.Watt {
	var ch *chip.Chip
	for _, c := range mg.M.Chips {
		if c.Profile.Label == mg.ChipLabel {
			ch = c
		}
	}
	if ch == nil {
		return 0
	}
	// Plan leakage at the thermal ceiling: the estimate must hold at the
	// worst sustained operating point, not a mild one.
	t := ch.Thermal.TjMaxC
	total := chip.UncoreW
	for _, core := range ch.Cores {
		label := core.Profile.Label
		if label == criticalCore {
			cfg, _ := mg.Dep.Config(label)
			total += chip.CorePower(pair.Critical, cfg.IdleFreq, silicon.VRef, ch.Thermal, t, false)
			continue
		}
		switch {
		case bgGated:
			total += chip.CorePower(pair.Background, 0, silicon.VRef, ch.Thermal, t, true)
		case bgATM:
			cfg, _ := mg.Dep.Config(label)
			total += chip.CorePower(pair.Background, cfg.IdleFreq, silicon.VRef, ch.Thermal, t, false)
		default:
			total += chip.CorePower(pair.Background, bgPState, silicon.VRef, ch.Thermal, t, false)
		}
	}
	return total
}
