package silicon

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/units"
)

// CPMSiteName names the functional unit each of a core's five CPMs is
// embedded in (Fig. 3).
var CPMSiteName = [5]string{"IFU", "ISU", "FXU", "FPU", "LLC"}

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
	SiteSkewPs []units.Picosecond

	// StepPs[k] is the extra delay contributed by tap k of the
	// inserted-delay chain over tap k−1, for k in [1, MaxTaps]. The
	// manufacturing process makes the graduation non-linear (Sec. IV-C):
	// entries vary between roughly one and three inverter delays.
	// StepPs[0] is unused and zero.
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

	params Params
	// ubLimit caches limitForGuard(UBenchGuardPs), the uBench limit every
	// application requirement rolls back from; Refresh recomputes it.
	ubLimit int
}

// Params returns the chip-level constants the profile was built with.
func (c *CoreProfile) Params() Params { return c.params }

// Refresh recomputes the values the profile derives from its fields.
// Construction, Clone and ScaleTrialNoise keep them current; any other
// in-place write to a field must be followed by Refresh, or the
// application requirements go on using the stale uBench limit.
func (c *CoreProfile) Refresh() { c.ubLimit = c.limitForGuard(c.UBenchGuardPs) }

// MaxReduction returns the largest legal inserted-delay reduction: the
// tap index cannot go below zero.
func (c *CoreProfile) MaxReduction() int { return c.PresetTaps }

// InsertedDelayPs returns the delay of the inserted-delay stage when
// configured at tap index taps (at VRef). Tap 0 contributes zero delay.
// It panics when taps is outside [0, MaxTaps]: configurations are always
// validated at the chip API boundary, so an out-of-range tap here is a
// programming error.
func (c *CoreProfile) InsertedDelayPs(taps int) units.Picosecond {
	if taps < 0 || taps >= len(c.StepPs) {
		panic(fmt.Sprintf("silicon: tap index %d out of range [0,%d] on %s",
			taps, len(c.StepPs)-1, c.Label))
	}
	var d units.Picosecond
	for k := 1; k <= taps; k++ {
		d += c.StepPs[k]
	}
	return d
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

// guards returns GuardPs(reduction) and RequiredGuardPs(score) from one
// walk of the step table. Both are a prefix sum of StepPs plus the
// synthetic path and the threshold slack: the guard's up to tap
// PresetTaps−reduction, an application requirement's up to the tap of
// the configuration its rollback lands on. One pass up to the deeper of
// the two taps reads both sums, each added in InsertedDelayPs's order,
// so both values are bit-identical to summing the taps separately.
//
//atm:hotpath
func (c *CoreProfile) guards(reduction int, score float64) (g, req units.Picosecond, err error) {
	if reduction < 0 || reduction > c.PresetTaps {
		return 0, 0, c.reductionErr(reduction)
	}
	gTap, reqTap := c.PresetTaps-reduction, -1
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
		reqTap = c.PresetTaps - min(max(lim, 0), c.PresetTaps)
	}
	steps := c.StepPs[:max(gTap, reqTap)+1]
	lo := max(min(gTap, reqTap), 0)
	var ins units.Picosecond
	for _, s := range steps[1 : lo+1] {
		ins += s
	}
	shallow := ins
	for _, s := range steps[lo+1:] {
		ins += s
	}
	gIns, reqIns := ins, shallow
	if gTap <= reqTap {
		gIns, reqIns = shallow, ins
	}
	theta := c.params.ThetaPs()
	g = c.SynthPs + gIns + theta
	if reqTap >= 0 {
		req = c.requirementForGuard(c.SynthPs + reqIns + theta)
	}
	return g, req, nil
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
	return c.params.SettleFreq(g, v), nil
}

// DefaultFreq returns the default-ATM (reduction 0) frequency at VRef —
// the ~4.6 GHz uniform performance the preset calibration delivers.
func (c *CoreProfile) DefaultFreq() units.MHz {
	return c.params.SettleFreq(c.mustGuard(0), c.params.VRef)
}

// StaticPerCoreFreq estimates the core's fixed ⟨v,f⟩ static-margin
// setpoint (Fig. 1, second bar): the highest frequency whose cycle time
// still covers the true path under the full static worst-case voltage
// guardband.
func (c *CoreProfile) StaticPerCoreFreq() units.MHz {
	worstV := c.params.VRef - c.params.StaticNoiseGuard
	d := units.Picosecond(float64(c.PathPs) * c.params.Scale(worstV))
	return d.Frequency().Clamp(0, c.params.FMaxHW)
}

// RollbackAt returns how many inserted-delay steps an application with
// the given stress score (0 = benign, 1 = the worst profiled workload)
// forces the core to roll back from its uBench limit.
func (c *CoreProfile) RollbackAt(score float64) int {
	if score <= 0 || c.Vulnerability == 0 {
		return 0
	}
	if score > 1 {
		score = 1
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
	// Reduction PresetTaps is always legal and puts the guard at tap 0,
	// so the walk covers only the requirement's taps.
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
// reduction is the last short tap. One forward pass over the taps
// finds it, summing StepPs in the order InsertedDelayPs does, so every
// guard it compares is bit-identical to GuardPs(r). It does not assume
// the guard grows with the tap index, and it is O(taps).
func (c *CoreProfile) limitForGuard(req units.Picosecond) int {
	// The 1e-9 slack keeps limitForGuard an exact inverse of
	// requiredGuardForLimit in the presence of float rounding.
	need := float64(req)*(1+limitHeadroomSigmas*c.SigmaFrac) - 1e-9
	theta := c.params.ThetaPs()
	steps := c.StepPs[:c.PresetTaps+1]
	var inserted units.Picosecond
	lastShort := -1
	for t := range steps {
		if t > 0 {
			inserted += steps[t]
		}
		// Negated >=: a NaN guard counts as short.
		if !(float64(c.SynthPs+inserted+theta) >= need) {
			lastShort = t
		}
	}
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
// the worst uncovered droop seen during the run.
//
//atm:hotpath
func (c *CoreProfile) SurvivesTrial(reduction int, score float64, src *rng.Source) (bool, error) {
	g, req, err := c.guards(reduction, score)
	if err != nil {
		return false, err
	}
	tail := math.Abs(src.Norm(0, c.SigmaFrac))
	return float64(g) >= float64(req)*(1+tail), nil
}

// FailureProb returns the per-trial failure probability at the given
// reduction and stress score (the analytic counterpart of SurvivesTrial,
// used by property tests).
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
	if err := c.params.Validate(); err != nil {
		return fmt.Errorf("%s: %w", c.Label, err)
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
	if c.SigmaFrac <= 0 {
		return fmt.Errorf("silicon: %s non-positive sigma", c.Label)
	}
	if len(c.SiteSkewPs) != c.params.NumCPMSites {
		return fmt.Errorf("silicon: %s has %d CPM sites, want %d",
			c.Label, len(c.SiteSkewPs), c.params.NumCPMSites)
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
	Chips  []*ChipProfile
	params Params
}

// Params returns the shared electrical constants.
func (s *ServerProfile) Params() Params { return s.params }

// AllCores returns every core on the server in (chip, core) order.
func (s *ServerProfile) AllCores() []*CoreProfile {
	var out []*CoreProfile
	for _, ch := range s.Chips {
		out = append(out, ch.Cores...)
	}
	return out
}

// FindCore returns the core with the given label, or nil.
func (s *ServerProfile) FindCore(label string) *CoreProfile {
	for _, c := range s.AllCores() {
		if c.Label == label {
			return c
		}
	}
	return nil
}

// Clone returns a deep copy of the core profile: mutating the clone's
// slices or scalars never aliases the original. The unexported params
// and the cached uBench limit ride along unchanged (they are values).
func (c *CoreProfile) Clone() *CoreProfile {
	nc := *c
	nc.StepPs = append([]units.Picosecond(nil), c.StepPs...)
	nc.SiteSkewPs = append([]units.Picosecond(nil), c.SiteSkewPs...)
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
	out := &ServerProfile{params: s.params, Chips: make([]*ChipProfile, 0, len(s.Chips))}
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

// Validate checks every core on the server.
func (s *ServerProfile) Validate() error {
	if len(s.Chips) == 0 {
		return fmt.Errorf("silicon: server has no chips")
	}
	for _, ch := range s.Chips {
		if len(ch.Cores) == 0 {
			return fmt.Errorf("silicon: chip %s has no cores", ch.Label)
		}
		for _, c := range ch.Cores {
			if err := c.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}
