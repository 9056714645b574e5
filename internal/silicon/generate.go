package silicon

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/units"
)

// GenerateOptions controls the forward process-variation model.
type GenerateOptions struct {
	// Chips is the number of processors to manufacture (2 on the
	// paper's server). Default 2.
	Chips int
	// CoresPerChip defaults to 8.
	CoresPerChip int
	// SpeedSigma is the relative inter-core spread of true path delay
	// (lithographic process variation). Default 0.018.
	SpeedSigma float64
	// ChipSpeedSigma is the chip-to-chip component of the spread
	// (cores on a chip are correlated). Default 0.008.
	ChipSpeedSigma float64
	// Params are the electrical constants; DefaultParams when zero.
	Params Params
}

func (o GenerateOptions) withDefaults() GenerateOptions {
	if o.Chips == 0 {
		o.Chips = 2
	}
	if o.CoresPerChip == 0 {
		o.CoresPerChip = 8
	}
	if o.SpeedSigma == 0 {
		o.SpeedSigma = 0.028
	}
	if o.ChipSpeedSigma == 0 {
		o.ChipSpeedSigma = 0.010
	}
	if o.Params == (Params{}) {
		o.Params = DefaultParams()
	}
	return o
}

// Generate manufactures a fresh server from the forward
// process-variation model. Unlike Reference, nothing here is pinned to
// the paper's measurements: per-core speed, CPM step non-linearity,
// droop vulnerability and the manufacturer preset calibration are all
// drawn from distributions, and the preset rule (equalize default-ATM
// idle frequency at FDefault) produces the Fig. 4b-style preset spread
// as an emergent property.
func Generate(seed uint64, opts GenerateOptions) (*ServerProfile, error) {
	o := opts.withDefaults()
	p := o.Params
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(seed)
	server := &ServerProfile{params: p}

	// The median silicon sits ~8% below the default-ATM cycle-time
	// requirement, leaving a few reclaimable steps on a typical core
	// and up to ~10 on the fast tail (the Table I spread).
	guardDefault := float64(p.FDefault.CycleTime())
	basePath := guardDefault * 0.92

	for ci := 0; ci < o.Chips; ci++ {
		chip := &ChipProfile{Label: fmt.Sprintf("P%d", ci)}
		chipSrc := root.SplitIndex("chip", ci)
		chipSpeed := chipSrc.Norm(0, o.ChipSpeedSigma)
		for k := 0; k < o.CoresPerChip; k++ {
			src := chipSrc.SplitIndex("core", k)
			label := fmt.Sprintf("P%dC%d", ci, k)
			core, err := generateCore(p, label, basePath, chipSpeed, o.SpeedSigma, src)
			if err != nil {
				return nil, err
			}
			chip.Cores = append(chip.Cores, core)
		}
		server.Chips = append(server.Chips, chip)
	}
	if err := server.Validate(); err != nil {
		return nil, err
	}
	return server, nil
}

// generateCore runs the forward model for one core.
func generateCore(p Params, label string, basePath, chipSpeed, speedSigma float64, src *rng.Source) (*CoreProfile, error) {
	c := &CoreProfile{Label: label, params: p}

	// Silicon speed: true critical path with chip-level + core-level
	// lognormal-ish variation. Faster cores (smaller path) have more
	// reclaimable margin.
	speed := math.Exp(chipSpeed + src.TruncNorm(0, speedSigma, -3*speedSigma, 3*speedSigma))
	c.PathPs = units.Picosecond(basePath / speed)

	// Non-linear step table (same tap statistics as the reference).
	c.StepPs = make([]units.Picosecond, p.MaxTaps+1)
	for k := 1; k <= p.MaxTaps; k++ {
		u := src.Float64()
		var w float64
		switch {
		case u < 0.18:
			w = 0.35 + 0.45*src.Float64()
		case u < 0.80:
			w = 0.9 + 1.0*src.Float64()
		default:
			w = 2.0 + 1.2*src.Float64()
		}
		c.StepPs[k] = units.Picosecond(w * float64(p.InvPs))
	}

	// Idle requirement = true path under the idle droop tail.
	c.IdleGuardPs = units.Picosecond(float64(c.PathPs) * (1 + p.IdleDroopFrac))

	// Per-trial noise of the required guard (uncovered droop tail),
	// sized so every inserted-delay step stays resolvable by the limit
	// searches (≥3.2σ of guard; see the reference calibration).
	minStep := c.StepPs[1]
	for k := 2; k <= p.MaxTaps; k++ {
		if c.StepPs[k] < minStep {
			minStep = c.StepPs[k]
		}
	}
	sigmaMax := float64(minStep) / (3.2 * float64(p.FDefault.CycleTime()))
	c.SigmaFrac = (0.5 + 0.5*src.Float64()) * sigmaMax
	if c.SigmaFrac < 5e-4 {
		c.SigmaFrac = 5e-4
	}

	// Manufacturer preset rule: pick the tap count that lands the
	// default-ATM idle frequency nearest FDefault (with calibration
	// jitter), then make sure enough protection depth exists above the
	// core's own limit. This is what produces Fig. 4b: fast cores need
	// large inserted delays to be slowed to the uniform frequency.
	fTarget := float64(p.FDefault) + src.Norm(0, p.FDefaultJitterMHz)
	guard0 := units.MHz(fTarget).CycleTime()

	// Silicon too slow to run the uniform default safely is binned to a
	// slightly lower default frequency: the default config must itself
	// sit above the core's idle requirement with full headroom.
	minGuard0 := units.Picosecond(float64(c.IdleGuardPs)*(1+limitHeadroomSigmas*c.SigmaFrac) + 1)
	if guard0 < minGuard0 {
		guard0 = minGuard0
	}

	// The synthetic path takes most of the CPM budget; the preset
	// absorbs the per-core remainder. The share varies core to core,
	// which (together with silicon speed) produces the wide Fig. 4b
	// preset spread.
	share := 0.68 + 0.14*src.Float64()
	c.SynthPs = units.Picosecond(float64(guard0)*share + src.Norm(0, 1.5))
	budget := guard0 - c.SynthPs - p.ThetaPs()
	if budget <= 0 {
		return nil, fmt.Errorf("silicon: %s preset budget non-positive", label)
	}
	best, bestErr := 1, math.Inf(1)
	for taps := 1; taps <= p.MaxTaps; taps++ {
		e := math.Abs(float64(c.InsertedDelayPs(taps) - budget))
		if e < bestErr {
			best, bestErr = taps, e
		}
	}
	c.PresetTaps = best
	// Re-solve the synthetic path so G(0) hits the target exactly with
	// the quantized preset.
	c.SynthPs = guard0 - c.InsertedDelayPs(c.PresetTaps) - p.ThetaPs()
	if c.SynthPs <= 0 {
		return nil, fmt.Errorf("silicon: %s synthetic path non-positive after preset", label)
	}

	// The idle limit must be reachable within the preset depth; if the
	// drawn silicon is so fast that the limit exceeds the preset,
	// manufacture a deeper preset by slowing the target frequency is
	// not possible (quantized) — instead clamp by raising the idle
	// requirement to what the deepest probe-able config provides.
	// (Rare: requires ~4σ-fast silicon.)
	idleLim := c.limitForGuard(c.IdleGuardPs)
	if idleLim >= c.PresetTaps {
		idleLim = c.PresetTaps - 1
	}
	// Snap the requirement to the discoverable grid: the raw
	// silicon-derived guard can land anywhere between two tap points,
	// leaving the next configuration with a failure probability too
	// small for any finite search to observe. The platform's *usable*
	// idle limit is the grid point, so the model carries that (slightly
	// more conservative) requirement — exactly how the reference
	// calibration defines its guards.
	c.IdleGuardPs = c.requiredGuardForLimit(idleLim)

	// uBench exposes long paths idle misses on a minority of cores
	// (the paper found 6 of 16).
	if src.Float64() < 0.4 {
		extraSteps := 1 + src.Intn(3)
		ubLim := idleLim - extraSteps
		if ubLim < 0 {
			ubLim = 0
		}
		c.UBenchGuardPs = c.requiredGuardForLimit(ubLim)
	} else {
		c.UBenchGuardPs = c.IdleGuardPs
	}
	if c.UBenchGuardPs < c.IdleGuardPs {
		c.UBenchGuardPs = c.IdleGuardPs
	}

	// Application vulnerability: how many further steps the worst
	// workload forces back, and the curvature of the stress response.
	ubLim := c.limitForGuard(c.UBenchGuardPs)
	maxV := ubLim // cannot roll back below reduction 0
	v := src.Intn(4)
	if src.Float64() < 0.25 {
		v = 0 // fully robust cores exist (right of Fig. 10)
	}
	if v > maxV {
		v = maxV
	}
	c.Vulnerability = v
	c.Gamma = 1 + 1.4*src.Float64()

	// Site skews.
	c.SiteSkewPs = make([]units.Picosecond, p.NumCPMSites)
	worstSite := src.Intn(p.NumCPMSites)
	for i := range c.SiteSkewPs {
		if i == worstSite {
			continue
		}
		c.SiteSkewPs[i] = units.Picosecond(-1 - 5*src.Float64())
	}
	c.Refresh()
	return c, nil
}
