package silicon

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/units"
)

// referenceLimits is the paper's Table I: the measured ATM
// reconfiguration limits of the two POWER7+ processors, as steps of CPM
// inserted-delay reduction from the default setting.
//
// Order: P0C0..P0C7 then P1C0..P1C7.
var referenceLimits = []struct {
	label                       string
	idle, uBench, normal, worst int
}{
	{"P0C0", 9, 9, 8, 6},
	{"P0C1", 8, 8, 7, 6},
	{"P0C2", 4, 4, 4, 3},
	{"P0C3", 11, 10, 9, 6},
	{"P0C4", 10, 9, 8, 6},
	{"P0C5", 7, 7, 6, 5},
	{"P0C6", 8, 8, 7, 5},
	{"P0C7", 2, 2, 2, 2},
	{"P1C0", 4, 4, 3, 3},
	{"P1C1", 8, 8, 7, 3},
	{"P1C2", 5, 5, 5, 5},
	{"P1C3", 8, 5, 4, 3},
	{"P1C4", 7, 6, 5, 3},
	{"P1C5", 5, 4, 3, 2},
	{"P1C6", 10, 10, 8, 6},
	{"P1C7", 3, 2, 2, 2},
}

// referenceIdleFreqMHz is the approximate idle-limit frequency of each
// core read off Fig. 7 (blue marks) and the Fig. 1/Sec. IV anecdotes:
// P0C3 peaks around 5.2 GHz, P0C4 and P1C7 reach ≈5.1 GHz with very
// different step counts (the non-linearity example of Sec. IV-C), P1C2
// sits near 4.85 GHz, and the slowest core idles around 4.7 GHz.
// The calibration scales each core's exercised inserted-delay steps so
// the idle-limit configuration settles at this frequency.
var referenceIdleFreqMHz = map[string]float64{
	"P0C0": 5050, "P0C1": 5040, "P0C2": 4800, "P0C3": 5200,
	"P0C4": 5100, "P0C5": 4950, "P0C6": 5010, "P0C7": 4700,
	"P1C0": 4820, "P1C1": 5000, "P1C2": 4850, "P1C3": 5060,
	"P1C4": 4940, "P1C5": 4900, "P1C6": 5150, "P1C7": 5100,
}

// ReferenceSeed is the fixed seed the reference profile's incidental
// details (step-table jitter, preset slack, site skews) are drawn with.
// Changing it produces a different but equally valid realization of the
// same published measurements.
const ReferenceSeed = 0x7077_3742 // "POWER7+ '42"

// Reference returns the server profile calibrated to the paper's two
// POWER7+ chips. The calibration embeds exactly the published
// measurements — Table I's four limit rows per core and the Fig. 4b
// preset-delay spread — and derives every remaining parameter from the
// physics model, so running this repository's characterization
// methodology against the profile rediscovers the paper's tables.
func Reference() *ServerProfile {
	return ReferenceWithParams(DefaultParams())
}

// ReferenceWithParams is Reference with explicit chip constants.
func ReferenceWithParams(p Params) *ServerProfile {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("silicon: bad reference params: %v", err))
	}
	src := rng.New(ReferenceSeed)
	server := &ServerProfile{params: p}
	chips := map[string]*ChipProfile{}
	for i, row := range referenceLimits {
		core := calibrateCore(p, row.label, row.idle, row.uBench, row.normal, row.worst,
			src.SplitIndex("core", i))
		chipLabel := row.label[:2]
		ch := chips[chipLabel]
		if ch == nil {
			ch = &ChipProfile{Label: chipLabel}
			chips[chipLabel] = ch
			server.Chips = append(server.Chips, ch)
		}
		ch.Cores = append(ch.Cores, core)
	}
	if err := server.Validate(); err != nil {
		panic(fmt.Sprintf("silicon: reference profile failed validation: %v", err))
	}
	return server
}

// calibrateCore builds one core profile whose deterministic limits under
// the failure model land exactly on the supplied Table I row.
//
// The derivation chain (Sec. 4 of DESIGN.md):
//
//  1. a non-linear inserted-delay step table is drawn (1–3 inverter
//     units per step, the paper's 20–60 mV equivalence);
//  2. the preset tap count follows the manufacturer rule "enough
//     protection depth above the core's real limit", reproducing the
//     Fig. 4b spread — fast cores get deep presets;
//  3. the default-ATM guard G(0) is pinned by the ≈4.6 GHz uniform idle
//     frequency, which fixes the synthetic-path delay;
//  4. the per-trial noise σ is sized from the local step granularity so
//     limit distributions span one-to-two configurations (Fig. 7);
//  5. the idle/uBench required guards are the inverses of the target
//     limits; vulnerability and γ pin thread-normal and thread-worst.
func calibrateCore(p Params, label string, idle, uBench, normal, worst int, src *rng.Source) *CoreProfile {
	if !(idle >= uBench && uBench >= normal && normal >= worst && worst >= 0) {
		panic(fmt.Sprintf("silicon: %s limits not monotone: %d/%d/%d/%d",
			label, idle, uBench, normal, worst))
	}
	c := &CoreProfile{Label: label, params: p}

	// (1) Non-linear step table. Each tap adds between ~0.8 and ~3.2
	// inverter delays; a few taps are near-degenerate (the paper's
	// "almost negligible change in frequency" steps).
	c.StepPs = make([]units.Picosecond, p.MaxTaps+1)
	for k := 1; k <= p.MaxTaps; k++ {
		u := src.Float64()
		var unitsWide float64
		switch {
		case u < 0.18: // shallow tap
			unitsWide = 0.35 + 0.45*src.Float64()
		case u < 0.80: // typical tap
			unitsWide = 0.9 + 1.0*src.Float64()
		default: // deep tap (the 200 MHz jumps of Fig. 5)
			unitsWide = 2.0 + 1.2*src.Float64()
		}
		c.StepPs[k] = units.Picosecond(unitsWide * float64(p.InvPs))
	}

	// (2) Preset depth: protection slack above the idle limit. The
	// +5..+7 slack keeps Fig. 4b's 7–20 range and its ≈3× spread.
	c.PresetTaps = idle + 5 + src.Intn(3)
	if c.PresetTaps > p.MaxTaps {
		c.PresetTaps = p.MaxTaps
	}

	// (3) Pin the default idle frequency near FDefault and the
	// idle-limit frequency at the Fig. 7 value: rescale the steps the
	// fine-tuning range actually exercises (taps preset−idle+1 …
	// preset) so removing them moves the loop from FDefault to the
	// published idle frequency. This is where the paper's big
	// CPM-encoding differences come from — P1C7 packs ~230 MHz into
	// each of 2 steps while P0C4 spreads ~50 MHz over each of 10.
	fDef := float64(p.FDefault) + src.Norm(0, p.FDefaultJitterMHz)
	guard0 := units.MHz(fDef).CycleTime()
	if fIdle, ok := referenceIdleFreqMHz[label]; ok && idle > 0 {
		want := guard0 - units.MHz(fIdle).CycleTime()
		var have units.Picosecond
		for k := c.PresetTaps - idle + 1; k <= c.PresetTaps; k++ {
			have += c.StepPs[k]
		}
		if have > 0 && want > 0 {
			alpha := float64(want) / float64(have)
			for k := c.PresetTaps - idle + 1; k <= c.PresetTaps; k++ {
				c.StepPs[k] = units.Picosecond(float64(c.StepPs[k]) * alpha)
			}
			// Keep every exercised step above a minimum encoding: a
			// near-degenerate tap would be indistinguishable from the
			// per-trial noise and the limit search could not resolve it.
			// Donate the deficit from the largest step to preserve the
			// pinned idle-limit frequency.
			const minStepPs = 0.9
			for k := c.PresetTaps - idle + 1; k <= c.PresetTaps; k++ {
				if float64(c.StepPs[k]) >= minStepPs {
					continue
				}
				deficit := units.Picosecond(minStepPs) - c.StepPs[k]
				big := c.PresetTaps - idle + 1
				for j := big + 1; j <= c.PresetTaps; j++ {
					if c.StepPs[j] > c.StepPs[big] {
						big = j
					}
				}
				if c.StepPs[big]-deficit > units.Picosecond(minStepPs) {
					c.StepPs[big] -= deficit
					c.StepPs[k] += deficit
				}
			}
		}
	}
	c.SynthPs = guard0 - c.InsertedDelayPs(c.PresetTaps) - p.ThetaPs()
	if c.SynthPs <= 0 {
		panic(fmt.Sprintf("silicon: %s synthetic path went non-positive (%v)", label, c.SynthPs))
	}

	// (4) Per-trial noise. Two constraints size σ:
	//
	//   - *resolvability*: every step the searches probe must exceed
	//     ~3.2σ of guard, or a limit one step out would not fail
	//     reliably and the methodology would read the limit high —
	//     σ ≤ minStep/(3.2·G);
	//   - *distribution shape*: when the probe step just beyond the
	//     idle limit is ≈3.5σ, trials pass there ~40% of the time and
	//     the Fig. 7 distribution covers two configurations; smaller σ
	//     makes it a single bar. Both shapes appear in Fig. 7, so 60%
	//     of cores draw the two-configuration σ when granularity allows.
	gIdle := c.SynthPs + c.InsertedDelayPs(c.PresetTaps-idle) + p.ThetaPs()
	probeGap := c.StepPs[1] // idle == preset ⇒ deepest tap is the probe
	if idle+1 <= c.PresetTaps {
		probeGap = c.StepPs[c.PresetTaps-idle]
	}
	minStep := probeGap
	for k := c.PresetTaps - idle; k <= c.PresetTaps && k >= 1; k++ {
		if c.StepPs[k] < minStep {
			minStep = c.StepPs[k]
		}
	}
	sigmaMax := float64(minStep) / (3.2 * float64(gIdle))
	sigma := 0.6 * sigmaMax
	if src.Float64() < 0.6 {
		if twoCfg := float64(probeGap) / (3.5 * float64(gIdle)); twoCfg < sigmaMax {
			sigma = twoCfg
		} else {
			sigma = sigmaMax
		}
	}
	c.SigmaFrac = sigma
	if c.SigmaFrac < 5e-4 {
		c.SigmaFrac = 5e-4
	}

	// (5) Invert the target limits into required guards.
	c.IdleGuardPs = c.requiredGuardForLimit(idle)
	c.UBenchGuardPs = c.requiredGuardForLimit(uBench)
	c.Vulnerability = uBench - worst
	c.Gamma = gammaFor(c.Vulnerability, uBench-normal)

	// True silicon speed: the idle requirement is the true path
	// stressed by the idle environment's uncovered droop tail.
	c.PathPs = units.Picosecond(float64(c.IdleGuardPs) / (1 + p.IdleDroopFrac))

	// CPM site skews: the worst site reports; the others sit within a
	// few ps below it (spatial variation across IFU/ISU/FXU/FPU/LLC).
	c.SiteSkewPs = make([]units.Picosecond, p.NumCPMSites)
	worstSite := src.Intn(p.NumCPMSites)
	for i := range c.SiteSkewPs {
		if i == worstSite {
			continue
		}
		c.SiteSkewPs[i] = units.Picosecond(-1 - 5*src.Float64())
	}
	c.Refresh()
	return c
}

// gammaFor solves the rollback-curve exponent so that
// round(v · 0.5^γ) equals the thread-normal rollback rbNormal
// (the "medium application" anchor, stress score 0.5).
func gammaFor(v, rbNormal int) float64 {
	if v <= 0 {
		return 1
	}
	if rbNormal <= 0 {
		// Need v·0.5^γ < 0.5 ⇒ γ > log2(2v); add margin.
		return math.Log2(2*float64(v)) + 0.5
	}
	if rbNormal > v {
		rbNormal = v
	}
	g := math.Log2(float64(v) / float64(rbNormal))
	// Keep a little curvature even when v == rbNormal (γ would be 0 and
	// every application, however benign, would roll back): with γ =
	// 0.35 the round() still lands on rbNormal at score 0.5 for the
	// small vulnerabilities this case occurs at, while light
	// applications keep rollback 0.
	if g < 0.35 {
		g = 0.35
	}
	return g
}

// ReferenceTableI returns the paper's Table I rows for a core label, so
// tests and reports can compare measured limits against the published
// values without re-parsing this package's internals.
func ReferenceTableI(label string) (idle, uBench, normal, worst int, ok bool) {
	for _, row := range referenceLimits {
		if row.label == label {
			return row.idle, row.uBench, row.normal, row.worst, true
		}
	}
	return 0, 0, 0, 0, false
}

// ReferenceCoreLabels returns the 16 core labels in Table I order.
func ReferenceCoreLabels() []string {
	out := make([]string, len(referenceLimits))
	for i, row := range referenceLimits {
		out[i] = row.label
	}
	return out
}
