package silicon

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/units"
)

// CPMSiteName names the functional unit each of a core's five CPMs is
// embedded in (Fig. 3).
var CPMSiteName = [NumCPMSites]string{"IFU", "ISU", "FXU", "FPU", "LLC"}

// CoreProfile is the manufactured silicon of one core plus its CPM
// hardware and its empirical failure envelope. All delays are at VRef.
//
// The mutable runtime state (current tap setting, DPLL state) lives in
// internal/chip. The profile itself caches its uBench limit, so code
// that writes any field of a built profile in place must call Refresh
// before the profile is used again (ScaleTrialNoise and the
// internal/lifetime overlay do).
type CoreProfile struct {
	// Label identifies the core, e.g. "P0C3" (processor 0, core 3).
	Label string

	// PathPs is the core's true worst critical-path delay D0 — the
	// silicon speed. Smaller is faster silicon.
	PathPs units.Picosecond

	// SynthPs is the delay of the CPM synthetic path (excluding the
	// inserted-delay stage) at the worst of the core's CPM sites.
	SynthPs units.Picosecond

	// SiteSkewPs is each CPM site's synthetic-path delay relative to
	// the worst site: values are ≤ 0 and the worst site is 0. The DPLL
	// consumes the worst (minimum-margin) site each cycle.
	SiteSkewPs [NumCPMSites]units.Picosecond

	// StepPs[k] is the extra delay contributed by tap k of the
	// inserted-delay chain over tap k−1, for k in [1, PresetTaps]: the
	// taps a configuration can select, since fine-tuning only reduces
	// the tap index below the preset. The manufacturing process makes
	// the graduation non-linear (Sec. IV-C): entries vary between
	// roughly one and three inverter delays. StepPs[0] is unused and
	// zero.
	StepPs []units.Picosecond

	// PresetTaps is the manufacturer's test-time inserted-delay setting
	// (Fig. 4b). Fine-tuning reduces the tap index below this value.
	PresetTaps int

	// IdleGuardPs is the guarded CPM path length (CPM delay + threshold
	// slack, at VRef) the core needs to run the bare OS safely: the
	// nominal required guard under system idle.
	IdleGuardPs units.Picosecond

	// UBenchGuardPs is the required guard under the micro-benchmarks
	// (coremark / daxpy / stream); ≥ IdleGuardPs for cores whose long
	// paths the idle environment does not exercise (Sec. V-B).
	UBenchGuardPs units.Picosecond

	// Vulnerability is the number of extra inserted-delay steps the
	// most stressful application forces the core to roll back from its
	// uBench limit (the columns of Fig. 10; 0 = fully robust core).
	Vulnerability int

	// Gamma shapes how rollback grows with application stress score:
	// rollback(s) = round(Vulnerability · s^Gamma). Larger Gamma means
	// only the most stressful applications hurt the core.
	Gamma float64

	// SigmaFrac is the relative per-trial spread of the required guard —
	// the stochastic tail of uncovered voltage-noise events. It controls
	// how many configurations the limit distributions of Fig. 7 span.
	SigmaFrac float64

	// ubLimit caches limitForGuard(UBenchGuardPs), the uBench limit every
	// application requirement rolls back from; Refresh recomputes it.
	ubLimit int

	// ins[t] caches InsertedDelayPs(t), StepPs[1..t] summed left to
	// right, for t in [0, PresetTaps]; Refresh rebuilds it. A built
	// profile's StepPs and ins share one allocation, with StepPs capped
	// at its length so that an append to it cannot reach the table.
	ins []units.Picosecond
}

// Refresh recomputes the values the profile derives from its fields:
// the inserted-delay table and the uBench limit, in one pass over the
// step table. Construction, Clone and ScaleTrialNoise keep them
// current; any other in-place write to a field must be followed by
// Refresh, or the guards and the application requirements go on using
// the stale values.
func (c *CoreProfile) Refresh() {
	steps := c.StepPs[:c.PresetTaps+1]
	if cap(c.ins) < len(steps) {
		c.ins = make([]units.Picosecond, len(steps))
	}
	ins := c.ins[:len(steps)]
	c.ins = ins
	need := c.limitNeed(c.UBenchGuardPs)
	var d units.Picosecond
	lastShort := -1
	for t, s := range steps {
		if t > 0 {
			d += s
		}
		ins[t] = d
		// Negated >=: a NaN guard counts as short.
		if !(float64(c.SynthPs+d+ThetaPs) >= need) {
			lastShort = t
		}
	}
	c.ubLimit = c.limitAfterShort(lastShort)
}

// setSteps makes steps the profile's step table and builds its
// inserted-delay table, both in one new allocation, then refreshes the
// profile.
func (c *CoreProfile) setSteps(steps []units.Picosecond) {
	n := len(steps)
	buf := make([]units.Picosecond, 2*n)
	copy(buf, steps)
	c.StepPs, c.ins = buf[:n:n], buf[n:]
	c.Refresh()
}

// MaxReduction returns the largest legal inserted-delay reduction: the
// tap index cannot go below zero.
func (c *CoreProfile) MaxReduction() int { return c.PresetTaps }

// InsertedDelayPs returns the delay of the inserted-delay stage when
// configured at tap index taps (at VRef): StepPs[1..taps] summed left
// to right, read from the profile's table. Tap 0 contributes zero
// delay. It panics when taps is outside [0, PresetTaps]:
// configurations are always validated at the chip API boundary, so an
// out-of-range tap here is a programming error.
func (c *CoreProfile) InsertedDelayPs(taps int) units.Picosecond {
	if taps < 0 || taps >= len(c.ins) {
		c.tapRangePanic(taps)
	}
	return c.ins[taps]
}

// tapRangePanic is InsertedDelayPs's out-of-range panic. It stays out
// of line so that InsertedDelayPs, which cpm.SiteDelay calls once per
// CPM site on every DPLL step, fits the inliner's budget.
//
//go:noinline
func (c *CoreProfile) tapRangePanic(taps int) {
	panic(fmt.Sprintf("silicon: tap index %d out of range [0,%d] on %s",
		taps, len(c.ins)-1, c.Label))
}

// GuardPs returns the guarded CPM path at inserted-delay reduction r:
// synthetic path + inserted delay at tap (preset − r) + the DPLL's
// threshold slack, in ps at VRef. The DPLL settles the cycle time at
// exactly this value, so GuardPs is both the protection the loop
// maintains and the inverse of the settled frequency.
func (c *CoreProfile) GuardPs(reduction int) (units.Picosecond, error) {
	// Score 0 is the idle requirement, which needs no tap of its own.
	g, _, err := c.guards(reduction, 0)
	return g, err
}

// guards returns GuardPs(reduction) and RequiredGuardPs(score). Both
// are the synthetic path plus an inserted delay plus the threshold
// slack: the guard's at tap PresetTaps−reduction, an application
// requirement's at the tap of the configuration its rollback lands on.
// Each reads its inserted delay from the profile's table, so both are
// bit-identical to InsertedDelayPs's left-to-right sums.
//
//atm:hotpath
func (c *CoreProfile) guards(reduction int, score float64) (g, req units.Picosecond, err error) {
	if reduction < 0 || reduction > c.PresetTaps {
		return 0, 0, c.reductionErr(reduction)
	}
	switch {
	case score <= 0:
		req = c.IdleGuardPs
	case score <= UBenchScore:
		// Between idle and the uBench anchor the envelope ramps
		// linearly: light instruction streams begin exercising real
		// paths immediately.
		frac := score / UBenchScore
		req = c.IdleGuardPs + units.Picosecond(frac*float64(c.UBenchGuardPs-c.IdleGuardPs))
	default:
		// Past the uBench anchor the envelope follows the quantized
		// rollback curve: the guard needed is the guard of the
		// (uBench limit − rollback) configuration.
		lim := c.ubLimit - c.RollbackAt(normalizeAppScore(score))
		reqTap := c.PresetTaps - min(max(lim, 0), c.PresetTaps)
		req = c.requirementForGuard(c.SynthPs + c.ins[reqTap] + ThetaPs)
	}
	return c.SynthPs + c.ins[c.PresetTaps-reduction] + ThetaPs, req, nil
}

// reductionErr is GuardPs's error for a reduction outside [0, PresetTaps].
func (c *CoreProfile) reductionErr(reduction int) error {
	if reduction < 0 {
		return fmt.Errorf("silicon: negative CPM delay reduction %d on %s", reduction, c.Label)
	}
	return fmt.Errorf("silicon: CPM delay reduction %d exceeds preset %d on %s",
		reduction, c.PresetTaps, c.Label)
}

// mustGuard is GuardPs for internal callers that have validated reduction.
func (c *CoreProfile) mustGuard(reduction int) units.Picosecond {
	g, err := c.GuardPs(reduction)
	if err != nil {
		panic(err)
	}
	return g
}

// SettledFreq returns the frequency the core's ATM loop settles at with
// the given inserted-delay reduction and chip supply voltage.
func (c *CoreProfile) SettledFreq(reduction int, v units.Volt) (units.MHz, error) {
	g, err := c.GuardPs(reduction)
	if err != nil {
		return 0, err
	}
	return SettleFreq(g, v), nil
}

// DefaultFreq returns the default-ATM (reduction 0) frequency at VRef —
// the ~4.6 GHz uniform performance the preset calibration delivers.
func (c *CoreProfile) DefaultFreq() units.MHz {
	return SettleFreq(c.mustGuard(0), VRef)
}

// StaticPerCoreFreq estimates the core's fixed ⟨v,f⟩ static-margin
// setpoint (Fig. 1, second bar): the highest frequency whose cycle time
// still covers the true path under the full static worst-case voltage
// guardband.
func (c *CoreProfile) StaticPerCoreFreq() units.MHz {
	worstV := VRef - StaticNoiseGuard
	d := units.Picosecond(float64(c.PathPs) * Scale(worstV))
	return d.Frequency().Clamp(0, FMaxHW)
}

// RollbackAt returns how many inserted-delay steps an application with
// the given stress score (0 = benign, 1 = the worst profiled workload)
// forces the core to roll back from its uBench limit:
// round(Vulnerability · score^Gamma), clamped to Vulnerability. It
// decides the rounding from bounds where it can (boundedRollback) and
// calls math.Pow only near a rounding threshold or outside the
// tabulated domain; the result is the same either way.
//
//atm:hotpath
func (c *CoreProfile) RollbackAt(score float64) int {
	if score <= 0 || c.Vulnerability == 0 {
		return 0
	}
	if score >= 1 {
		// Pow(1, γ) is 1 for every γ, NaN included.
		return c.Vulnerability
	}
	if rb, ok := boundedRollback(c.Vulnerability, score, c.Gamma); ok {
		return rb
	}
	rb := int(math.Round(float64(c.Vulnerability) * math.Pow(score, c.Gamma)))
	if rb > c.Vulnerability {
		rb = c.Vulnerability
	}
	return rb
}

// RequiredGuardPs returns the nominal guarded path the core needs to
// survive a workload with the given stress score. Scores ≤ 0 denote the
// idle environment; the special score UBenchScore anchors the
// micro-benchmark envelope; larger scores interpolate through the
// rollback curve up to the worst profiled workload at 1.
func (c *CoreProfile) RequiredGuardPs(score float64) units.Picosecond {
	// Reduction PresetTaps is always legal.
	_, req, _ := c.guards(c.PresetTaps, score)
	return req
}

// UBenchScore is the stress score assigned to the three micro-benchmarks:
// well above idle, well below real applications (Sec. V-A: uBench
// "create little system noise, especially the di/dt effect").
const UBenchScore = 0.12

// normalizeAppScore maps an application score in (UBenchScore, 1] onto
// the rollback curve's [0, 1] domain.
func normalizeAppScore(score float64) float64 {
	s := (score - UBenchScore) / (1 - UBenchScore)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// limitForGuard returns the deterministic configuration limit for the
// required guard req: the reduction just below the smallest one whose
// guard falls short of req with the calibration headroom factor
// applied, PresetTaps when none does, and 0 when reduction 0 already
// falls short.
//
// Reduction r's guard uses tap PresetTaps−r, so the smallest short
// reduction is the last short tap. A backward scan of the
// inserted-delay table from tap PresetTaps finds it, comparing guards
// bit-identical to GuardPs(r). It does not assume the guard grows with
// the tap index.
func (c *CoreProfile) limitForGuard(req units.Picosecond) int {
	need := c.limitNeed(req)
	ins := c.ins[:c.PresetTaps+1]
	for t := len(ins) - 1; t >= 0; t-- {
		// Negated >=: a NaN guard counts as short.
		if !(float64(c.SynthPs+ins[t]+ThetaPs) >= need) {
			return c.limitAfterShort(t)
		}
	}
	return c.PresetTaps
}

// limitNeed is the guard limitForGuard compares against for the
// requirement req: req with the calibration headroom factor applied.
// The 1e-9 slack keeps limitForGuard an exact inverse of
// requiredGuardForLimit in the presence of float rounding.
func (c *CoreProfile) limitNeed(req units.Picosecond) float64 {
	return float64(req)*(1+limitHeadroomSigmas*c.SigmaFrac) - 1e-9
}

// limitAfterShort is the limit when lastShort is the last tap whose
// guard falls short (−1 when none does).
func (c *CoreProfile) limitAfterShort(lastShort int) int {
	if lastShort < 0 {
		return c.PresetTaps
	}
	return max(c.PresetTaps-lastShort-1, 0)
}

// requiredGuardForLimit inverts limitForGuard: the nominal required
// guard that makes the deterministic limit land exactly at lim.
func (c *CoreProfile) requiredGuardForLimit(lim int) units.Picosecond {
	if lim > c.PresetTaps {
		lim = c.PresetTaps
	}
	if lim < 0 {
		lim = 0
	}
	return c.requirementForGuard(c.mustGuard(lim))
}

// requirementForGuard is the nominal requirement a configuration with
// guard g covers with the calibration headroom to spare.
func (c *CoreProfile) requirementForGuard(g units.Picosecond) units.Picosecond {
	return units.Picosecond(float64(g) / (1 + limitHeadroomSigmas*c.SigmaFrac))
}

// limitHeadroomSigmas is how many per-trial sigmas of headroom the
// nominal requirement keeps below a configuration's guard for the
// configuration to count as "safe": at the limit configuration the
// failure probability is the far tail (~7e-6 per run, so a full
// characterization with its thousands of runs sees at most a spurious
// failure or two across many invocations), while one step beyond the
// limit the guard deficit is several sigmas and failures are near
// certain — producing the tight, one-to-two-wide limit distributions of
// Fig. 7.
const limitHeadroomSigmas = 4.5

// DeterministicLimit returns the configuration limit (max safe reduction)
// for a workload stress score, without stochastic trials. The
// characterization package rediscovers these limits empirically.
func (c *CoreProfile) DeterministicLimit(score float64) int {
	return c.limitForGuard(c.RequiredGuardPs(score))
}

// SurvivesTrial draws one stochastic trial: does the core execute the
// given workload correctly at the given reduction? The per-trial
// requirement is the nominal guard inflated by a half-normal tail —
// the worst uncovered droop seen during the run: the run survives when
// g ≥ req·(1 + |σ·z|) for a standard normal z. The draw consumes the
// stream exactly as src.Norm does, and the outcome is decided from
// bounds on |z| unless they cannot decide it (see survives).
//
//atm:hotpath
func (c *CoreProfile) SurvivesTrial(reduction int, score float64, src *rng.Source) (bool, error) {
	g, req, err := c.guards(reduction, score)
	if err != nil {
		return false, err
	}
	u1, u2 := src.NormUniforms()
	return survives(float64(g), float64(req), c.SigmaFrac, u1, u2), nil
}

// FailureProb returns the per-trial failure probability at the given
// reduction and stress score (the analytic counterpart of SurvivesTrial,
// used by property tests).
//
//lint:ignore deadcode reference model: the silicon tests compare SurvivesTrial's empirical failure rate against it
func (c *CoreProfile) FailureProb(reduction int, score float64) (float64, error) {
	g, req, err := c.guards(reduction, score)
	if err != nil {
		return 0, err
	}
	if req <= 0 {
		return 0, nil
	}
	t := c.headroomSigmas(g, req)
	if t < 0 {
		return 1, nil
	}
	// P(|N(0,1)| > t) = erfc(t/√2).
	return math.Erfc(t / math.Sqrt2), nil
}

// MarginSigmas returns the core's CPM slack margin at the given
// reduction: how many per-trial sigmas of headroom its guard keeps above
// the worst-case workload envelope (stress score 1). It is the quantity
// the limit criterion bounds (limitHeadroomSigmas): a freshly
// fine-tuned core keeps at least 4.5, a core whose silicon drifted past
// its envelope goes negative. It is 0 when the envelope or the sigma is
// not positive. The FSP margin register reports it in milli-sigmas.
func (c *CoreProfile) MarginSigmas(reduction int) (float64, error) {
	g, req, err := c.guards(reduction, 1)
	if err != nil {
		return 0, err
	}
	if req <= 0 || c.SigmaFrac <= 0 {
		return 0, nil
	}
	return c.headroomSigmas(g, req), nil
}

// headroomSigmas is guard g's headroom over requirement req in
// per-trial sigmas: (g/req − 1)/σ.
func (c *CoreProfile) headroomSigmas(g, req units.Picosecond) float64 {
	return (float64(g)/float64(req) - 1) / c.SigmaFrac
}

// Validate reports whether the profile is internally consistent.
func (c *CoreProfile) Validate() error {
	if c.Label == "" {
		return fmt.Errorf("silicon: core profile missing label")
	}
	if c.PresetTaps < 1 || c.PresetTaps >= len(c.StepPs) {
		return fmt.Errorf("silicon: %s preset taps %d outside step table (len %d)",
			c.Label, c.PresetTaps, len(c.StepPs))
	}
	for k := 1; k < len(c.StepPs); k++ {
		if c.StepPs[k] <= 0 {
			return fmt.Errorf("silicon: %s step %d non-positive (%v)", c.Label, k, c.StepPs[k])
		}
	}
	if c.PathPs <= 0 || c.SynthPs <= 0 {
		return fmt.Errorf("silicon: %s non-positive path delays", c.Label)
	}
	if c.IdleGuardPs <= 0 || c.UBenchGuardPs < c.IdleGuardPs {
		return fmt.Errorf("silicon: %s guard envelope inverted (idle %v, uBench %v)",
			c.Label, c.IdleGuardPs, c.UBenchGuardPs)
	}
	if c.Vulnerability < 0 {
		return fmt.Errorf("silicon: %s negative vulnerability", c.Label)
	}
	// Negated comparisons, so NaN is rejected too.
	if !(c.SigmaFrac > 0 && c.SigmaFrac <= math.MaxFloat64) {
		return fmt.Errorf("silicon: %s sigma %v not finite and positive", c.Label, c.SigmaFrac)
	}
	if !(c.Gamma > 0 && c.Gamma <= math.MaxFloat64) {
		return fmt.Errorf("silicon: %s rollback gamma %v not finite and positive", c.Label, c.Gamma)
	}
	worst := units.Picosecond(math.Inf(-1))
	for _, s := range c.SiteSkewPs {
		if s > 0 {
			return fmt.Errorf("silicon: %s positive site skew %v (worst site must be 0)", c.Label, s)
		}
		if s > worst {
			worst = s
		}
	}
	if worst != 0 {
		return fmt.Errorf("silicon: %s has no zero-skew worst site", c.Label)
	}
	return nil
}

// ChipProfile is the silicon of one processor: eight cores sharing a
// power-delivery rail.
type ChipProfile struct {
	// Label identifies the processor, e.g. "P0".
	Label string
	// Cores holds the per-core profiles in physical order.
	Cores []*CoreProfile
}

// ServerProfile is the full platform: the paper's machine has two
// eight-core POWER7+ processors.
type ServerProfile struct {
	Chips []*ChipProfile
}

// AllCores returns every core on the server in (chip, core) order.
func (s *ServerProfile) AllCores() []*CoreProfile {
	var out []*CoreProfile
	for _, ch := range s.Chips {
		out = append(out, ch.Cores...)
	}
	return out
}

// FindCore returns the first core, in (chip, core) order, with the
// given label, or nil.
func (s *ServerProfile) FindCore(label string) *CoreProfile {
	for _, ch := range s.Chips {
		for _, c := range ch.Cores {
			if c.Label == label {
				return c
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the core profile: mutating the clone's
// step table or scalars never aliases the original. The clone's step
// table and inserted-delay table are copied into one new buffer laid
// out as setSteps lays them; the cached uBench limit rides along
// unchanged (it is a value).
func (c *CoreProfile) Clone() *CoreProfile {
	nc := *c
	n := len(c.StepPs)
	buf := make([]units.Picosecond, n+len(c.ins))
	copy(buf, c.StepPs)
	copy(buf[n:], c.ins)
	nc.StepPs, nc.ins = buf[:n:n], buf[n:]
	return &nc
}

// Clone returns a deep copy of the chip profile.
func (ch *ChipProfile) Clone() *ChipProfile {
	nch := &ChipProfile{Label: ch.Label, Cores: make([]*CoreProfile, 0, len(ch.Cores))}
	for _, c := range ch.Cores {
		nch.Cores = append(nch.Cores, c.Clone())
	}
	return nch
}

// Clone returns a deep copy of the whole server profile. Overlays that
// age or perturb silicon parameters (internal/lifetime) mutate a clone,
// never the reference profile, so the pristine silicon stays available
// for comparison runs in the same process.
func (s *ServerProfile) Clone() *ServerProfile {
	out := &ServerProfile{Chips: make([]*ChipProfile, 0, len(s.Chips))}
	for _, ch := range s.Chips {
		out.Chips = append(out.Chips, ch.Clone())
	}
	return out
}

// ScaleTrialNoise returns a deep copy of the server whose per-trial
// required-guard noise (SigmaFrac) is scaled by factor on every core.
// Used by the noise ablation: a noisier platform widens the limit
// distributions and pushes every measured limit more conservative,
// because the searches must clear a larger stochastic tail.
func (s *ServerProfile) ScaleTrialNoise(factor float64) *ServerProfile {
	if factor <= 0 {
		panic("silicon: non-positive noise scale")
	}
	out := s.Clone()
	for _, c := range out.AllCores() {
		c.SigmaFrac *= factor
		c.Refresh()
	}
	return out
}

// Validate checks every core on the server, and that no two chips and
// no two cores share a label: cores are addressed by label, so a
// duplicate would shadow the core behind it.
func (s *ServerProfile) Validate() error {
	if len(s.Chips) == 0 {
		return fmt.Errorf("silicon: server has no chips")
	}
	for ci, ch := range s.Chips {
		if len(ch.Cores) == 0 {
			return fmt.Errorf("silicon: chip %s has no cores", ch.Label)
		}
		for _, prev := range s.Chips[:ci] {
			if prev.Label == ch.Label {
				return fmt.Errorf("silicon: duplicate chip label %q", ch.Label)
			}
		}
		for _, c := range ch.Cores {
			if err := c.Validate(); err != nil {
				return err
			}
			if s.FindCore(c.Label) != c {
				return fmt.Errorf("silicon: duplicate core label %q", c.Label)
			}
		}
	}
	return nil
}
