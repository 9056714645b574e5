// Package lifetime simulates years of field operation on a fine-tuned
// ATM machine: silicon aging (NBTI/HCI threshold-voltage drift), VRM
// loadline aging, and ambient temperature cycles erode the timing
// margin the fine-tuning procedure spent, and the closed-loop margin
// sentinel (internal/sentinel) either catches the erosion in time or —
// with the sentinel disabled — the machine starts taking timing
// failures. The paper fine-tunes fresh silicon once; this package
// answers the question its Sec. VII leaves open: what keeps that
// configuration safe for the machine's service life?
//
// Everything is driven by simulated time and a single seed: the drift
// trajectories, the ambient schedule, the workload trials and the
// sentinel's re-tunes all draw from labelled rng splits, so a
// (profile, seed, horizon) triple replays bit-for-bit.
package lifetime

import (
	"math"

	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/units"
)

// HoursPerYear is the simulated-time conversion used throughout.
const HoursPerYear = 8760

// Params has no fields: the drift model's coefficients are the
// constants below. It stays as NewOverlay's second parameter only
// because atmbench, the repository's benchmark module, calls
// NewOverlay(m, Params{}, ...).
type Params struct{}

// The calibrated drift model: strong enough that an unsupervised
// fine-tuned machine starts failing well inside three years, gentle
// enough that the sentinel's ladder keeps a supervised one safe. The
// constants are typed float64, so each derived value (nbtiMean/3,
// -3*stepSkewSigma, 1/excursionMeanHours) rounds exactly as it would
// from a float64 variable.
const (
	// nbtiMean/nbtiSigma parameterize the per-core NBTI aging
	// coefficient: fractional true-path slowdown after one year of
	// powered-on time, before the t^0.16 time exponent. Drawn once per
	// core from a truncated normal.
	nbtiMean  float64 = 0.030
	nbtiSigma float64 = 0.008
	// hciMean/hciSigma parameterize the per-core hot-carrier aging
	// coefficient: fractional slowdown per sqrt(active-year).
	hciMean  float64 = 0.008
	hciSigma float64 = 0.003
	// trackLo/trackHi bound the per-core CPM tracking ratio τ: the
	// fraction of the true path's aging the CPM synthetic path (and its
	// inserted-delay chain) experiences. τ < 1 is the whole problem —
	// the monitor ages slower than the paths it guards, so the margin
	// it reports is increasingly optimistic.
	trackLo float64 = 0.60
	trackHi float64 = 0.85
	// stepSkewSigma is the relative spread of per-tap aging jitter on
	// the inserted-delay step table: individual taps age slightly
	// faster or slower than the core's τ, skewing the step graduation
	// the fine-tuning search characterized.
	stepSkewSigma float64 = 0.05
	// noiseGrowthPerYear inflates SigmaFrac — the uncovered-droop tail
	// widens as the silicon ages.
	noiseGrowthPerYear float64 = 0.05
	// loadlineGrowthMean/Sigma parameterize per-chip VRM loadline
	// aging (fractional resistance growth per year): solder joint and
	// capacitor ESR degradation.
	loadlineGrowthMean  float64 = 0.03
	loadlineGrowthSigma float64 = 0.01

	// Ambient temperature model (°C): mean plus a yearly (seasonal)
	// and a daily (diurnal) sinusoid plus seeded excursions (cooling
	// events, heat waves).
	ambientMeanC float64 = 25
	seasonalAmpC float64 = 4
	diurnalAmpC  float64 = 3
	// excursionsPerYear is the mean rate of ambient excursions; each
	// has a truncated-normal amplitude (mean/sigma below, clamped to
	// [1, 12] °C) and an exponential duration (mean in hours).
	excursionsPerYear  float64 = 6
	excursionAmpMeanC  float64 = 6
	excursionAmpSigmaC float64 = 2
	excursionMeanHours float64 = 36
)

// coreDrift is one core's frozen aging trajectory: coefficients drawn
// once at overlay construction, applied as pure functions of time.
type coreDrift struct {
	nbti  float64
	hci   float64
	track float64
	// stepSkew[k] is 1 + tap k's aging jitter: the factor that skews
	// tap k's aging relative to the core's τ. It covers the profile's
	// taps, [0, PresetTaps].
	stepSkew []float64
	// activeYears accumulates the core's powered-and-working time, the
	// HCI stress variable.
	activeYears float64
}

// nbtiTime is the NBTI time factor t^0.16 at powered age tYears. It is
// the same for every core, so an epoch computes it once.
func nbtiTime(tYears float64) float64 { return math.Pow(tYears, 0.16) }

// ageFrac returns the core's fractional true-path slowdown at powered
// age tYears with the accumulated activity; nbtiT is nbtiTime(tYears).
func (d *coreDrift) ageFrac(tYears, nbtiT float64) float64 {
	if tYears <= 0 {
		return 0
	}
	return d.nbti*nbtiT + d.hci*math.Sqrt(d.activeYears)
}

// excursion is one seeded ambient event.
type excursion struct {
	startH float64
	endH   float64
	ampC   float64
}

// Overlay mutates a machine's silicon parameters in place as simulated
// time advances. It snapshots the pristine profile at construction and
// recomputes every aged value from that snapshot — the aging factors
// are idempotent functions of time, never cumulative multiplications,
// so replaying a horizon in different epoch sizes lands on identical
// parameters. The machine must have been built from a Clone of the
// caller's profile: the overlay rewrites the profile the machine holds
// and nothing else.
type Overlay struct {
	m *chip.Machine
	// live are the machine's core profiles and pristine a deep copy of
	// them taken at construction, every aged value's source; both in
	// AllCores order.
	live, pristine []*silicon.CoreProfile
	// baseLoadline/baseAmbient snapshot the chip-level electricals.
	baseLoadline []float64
	cores        []coreDrift
	chipRate     []float64 // per-chip loadline growth per year
	excursions   []excursion
	// lastHours is where Advance last left simulated time.
	lastHours float64
}

// NewOverlay draws the drift trajectories for the machine's silicon.
// horizonYears bounds the pre-drawn ambient excursion schedule. Every
// draw comes from labelled splits of src, so the overlay is a pure
// function of (machine profile, seed).
func NewOverlay(m *chip.Machine, _ Params, horizonYears float64, src *rng.Source) *Overlay {
	o := &Overlay{m: m, pristine: m.Profile().Clone().AllCores()}

	coreSrc := src.Split("cores")
	cores := m.AllCores()
	o.cores = make([]coreDrift, len(cores))
	o.live = make([]*silicon.CoreProfile, len(cores))
	for i, core := range cores {
		o.live[i] = core.Profile
		cs := coreSrc.SplitIndex("core", i)
		d := coreDrift{
			nbti:  cs.TruncNorm(nbtiMean, nbtiSigma, nbtiMean/3, nbtiMean*2),
			hci:   cs.TruncNorm(hciMean, hciSigma, 0, hciMean*3),
			track: trackLo + cs.Float64()*(trackHi-trackLo),
		}
		d.stepSkew = make([]float64, len(core.Profile.StepPs))
		for k := range d.stepSkew {
			d.stepSkew[k] = 1 + cs.TruncNorm(0, stepSkewSigma, -3*stepSkewSigma, 3*stepSkewSigma)
		}
		o.cores[i] = d
	}

	chipSrc := src.Split("chips")
	o.chipRate = make([]float64, len(m.Chips))
	o.baseLoadline = make([]float64, len(m.Chips))
	for i, ch := range m.Chips {
		cs := chipSrc.SplitIndex("chip", i)
		o.chipRate[i] = cs.TruncNorm(loadlineGrowthMean, loadlineGrowthSigma, 0, loadlineGrowthMean*3)
		o.baseLoadline[i] = ch.PDN.LoadlineOhms
	}

	// Pre-draw the ambient excursion schedule across the horizon.
	ambSrc := src.Split("ambient")
	horizonH := horizonYears * HoursPerYear
	for t := 0.0; ; {
		t += ambSrc.Exp(excursionsPerYear / HoursPerYear)
		if t >= horizonH {
			break
		}
		dur := ambSrc.Exp(1 / excursionMeanHours)
		amp := ambSrc.TruncNorm(excursionAmpMeanC, excursionAmpSigmaC, 1, 12)
		o.excursions = append(o.excursions, excursion{startH: t, endH: t + dur, ampC: amp})
	}
	return o
}

// AmbientAt returns the inlet temperature at simulated hour t.
func (o *Overlay) AmbientAt(tHours float64) float64 {
	a := ambientMeanC
	a += seasonalAmpC * math.Sin(2*math.Pi*tHours/HoursPerYear)
	a += diurnalAmpC * math.Sin(2*math.Pi*hourOfDay(tHours)/24)
	for i := range o.excursions {
		if tHours >= o.excursions[i].startH && tHours < o.excursions[i].endH {
			a += o.excursions[i].ampC
		}
	}
	return a
}

// hourOfDay returns math.Mod(t, 24), the hour of the day at simulated
// hour t, bit for bit, without Mod's float loop for t in (0, 2^52).
// There n = ⌊t⌋ is exact, and so is t − n (Sterbenz for t ≥ 1); the
// sum (n mod 24) + (t − n) has Mod's remainder as its true value, which
// is a float, so it rounds to exactly that. Every other t (0, −0 with
// its sign, negatives, 2^52 and past, NaN and the infinities) goes to
// Mod.
func hourOfDay(t float64) float64 {
	if t > 0 && t < 1<<52 {
		n := int64(t)
		return float64(n%24) + (t - float64(n))
	}
	return math.Mod(t, 24)
}

// CoreAge returns core i's current fractional true-path slowdown.
func (o *Overlay) CoreAge(i int) float64 {
	if i < 0 || i >= len(o.cores) {
		return 0
	}
	tY := o.lastHours / HoursPerYear
	return o.cores[i].ageFrac(tY, nbtiTime(tY))
}

// Advance moves simulated time forward by dtHours and rewrites the
// machine's silicon and electrical parameters for the new instant,
// refreshing each rewritten core profile (silicon.CoreProfile.Refresh).
// active[i] marks cores that did real work during the elapsed slice
// (the HCI stress input); its order is the machine's AllCores order.
func (o *Overlay) Advance(dtHours float64, active []bool) {
	t := o.lastHours + dtHours
	o.lastHours = t
	tY := t / HoursPerYear
	nbtiT := nbtiTime(tY)

	for i, p := range o.live {
		d := &o.cores[i]
		if i < len(active) && active[i] {
			d.activeYears += dtHours / HoursPerYear
		}
		age := d.ageFrac(tY, nbtiT)
		cpmAge := d.track * age

		bp := o.pristine[i]
		// The true paths (and the guard the workloads demand) age at
		// the full rate...
		p.PathPs = units.Picosecond(float64(bp.PathPs) * (1 + age))
		p.IdleGuardPs = units.Picosecond(float64(bp.IdleGuardPs) * (1 + age))
		p.UBenchGuardPs = units.Picosecond(float64(bp.UBenchGuardPs) * (1 + age))
		// ...while the CPM synthetic path and its inserted-delay chain
		// track at only τ of it, so the reported margin erodes.
		p.SynthPs = units.Picosecond(float64(bp.SynthPs) * (1 + cpmAge))
		// The step slices are resliced to one length so the compiler
		// drops the loop's bounds checks.
		steps := p.StepPs
		baseSteps, skew := bp.StepPs[:len(steps)], d.stepSkew[:len(steps)]
		for k := 1; k < len(steps); k++ {
			steps[k] = units.Picosecond(float64(baseSteps[k]) * (1 + cpmAge*skew[k]))
		}
		for k := range p.SiteSkewPs {
			p.SiteSkewPs[k] = units.Picosecond(float64(bp.SiteSkewPs[k]) * (1 + cpmAge))
		}
		// The uncovered-droop tail widens with age.
		p.SigmaFrac = bp.SigmaFrac * (1 + noiseGrowthPerYear*tY)
		p.Refresh()
	}

	amb := o.AmbientAt(t)
	for i, ch := range o.m.Chips {
		ch.PDN.LoadlineOhms = o.baseLoadline[i] * (1 + o.chipRate[i]*tY)
		ch.Thermal.AmbientC = units.Celsius(amb)
	}
}
