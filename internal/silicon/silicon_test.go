package silicon

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestDefaultParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
}

func TestParamsValidateCatchesBadness(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.VRef = 0.3 }, // below VTh
		func(p *Params) { p.InvPs = 0 },
		func(p *Params) { p.ThetaUnits = 0 },
		func(p *Params) { p.MaxTaps = 0 },
		func(p *Params) { p.FDefault = 4000 }, // below FStatic
		func(p *Params) { p.FMaxHW = 4500 },   // below FDefault
		func(p *Params) { p.NumCPMSites = 0 },
		func(p *Params) { p.IdleDroopFrac = -1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestScale(t *testing.T) {
	p := DefaultParams()
	if got := p.Scale(p.VRef); math.Abs(got-1) > 1e-12 {
		t.Errorf("Scale(VRef) = %g, want 1", got)
	}
	// Lower voltage → slower circuits → larger scale.
	if p.Scale(1.20) <= 1 {
		t.Error("Scale below VRef should exceed 1")
	}
	if p.Scale(1.30) >= 1 {
		t.Error("Scale above VRef should be below 1")
	}
	// ~20 mV sag ≈ 2.2% delay at the POWER7+ point.
	got := p.Scale(p.VRef - 0.020)
	if math.Abs(got-1.0227) > 0.001 {
		t.Errorf("Scale(VRef−20mV) = %g, want ≈1.0227", got)
	}
}

func TestSettleFreqCap(t *testing.T) {
	p := DefaultParams()
	if got := p.SettleFreq(1, p.VRef); got != p.FMaxHW {
		t.Errorf("tiny guard should clamp to FMaxHW, got %v", got)
	}
	if got := p.SettleFreq(0, p.VRef); got != p.FMaxHW {
		t.Errorf("zero guard should clamp to FMaxHW, got %v", got)
	}
}

func TestReferenceIsValid(t *testing.T) {
	srv := Reference()
	if err := srv.Validate(); err != nil {
		t.Fatalf("reference invalid: %v", err)
	}
	if len(srv.Chips) != 2 {
		t.Fatalf("reference has %d chips, want 2", len(srv.Chips))
	}
	for _, ch := range srv.Chips {
		if len(ch.Cores) != 8 {
			t.Fatalf("chip %s has %d cores, want 8", ch.Label, len(ch.Cores))
		}
	}
}

func TestReferenceDeterministicLimitsMatchTableI(t *testing.T) {
	srv := Reference()
	for _, c := range srv.AllCores() {
		idle, ub, normal, worst, ok := ReferenceTableI(c.Label)
		if !ok {
			t.Fatalf("no table row for %s", c.Label)
		}
		if got := c.DeterministicLimit(0); got != idle {
			t.Errorf("%s idle limit = %d, want %d", c.Label, got, idle)
		}
		if got := c.DeterministicLimit(UBenchScore); got != ub {
			t.Errorf("%s uBench limit = %d, want %d", c.Label, got, ub)
		}
		mid := UBenchScore + 0.5*(1-UBenchScore)
		if got := c.DeterministicLimit(mid); got != normal {
			t.Errorf("%s thread-normal = %d, want %d", c.Label, got, normal)
		}
		if got := c.DeterministicLimit(1); got != worst {
			t.Errorf("%s thread-worst = %d, want %d", c.Label, got, worst)
		}
	}
}

func TestReferencePresetSpread(t *testing.T) {
	srv := Reference()
	lo, hi := 1000, 0
	for _, c := range srv.AllCores() {
		if c.PresetTaps < lo {
			lo = c.PresetTaps
		}
		if c.PresetTaps > hi {
			hi = c.PresetTaps
		}
	}
	// Fig. 4b: presets range ~7 to 20, nearly a 3× spread.
	if lo < 5 || hi > 20 {
		t.Errorf("preset range [%d,%d] outside the Fig. 4b envelope", lo, hi)
	}
	if float64(hi)/float64(lo) < 2 {
		t.Errorf("preset spread %d/%d below the ~3x of Fig. 4b", hi, lo)
	}
}

func TestReferenceDefaultFrequencyUniform(t *testing.T) {
	srv := Reference()
	p := srv.Params()
	for _, c := range srv.AllCores() {
		f := c.DefaultFreq()
		if math.Abs(float64(f-p.FDefault)) > 3.5*p.FDefaultJitterMHz {
			t.Errorf("%s default frequency %v too far from %v", c.Label, f, p.FDefault)
		}
	}
}

func TestReferenceIdleFrequenciesMatchFig7(t *testing.T) {
	srv := Reference()
	for _, c := range srv.AllCores() {
		want, ok := referenceIdleFreqMHz[c.Label]
		if !ok {
			t.Fatalf("no Fig. 7 frequency for %s", c.Label)
		}
		idle, _, _, _, _ := ReferenceTableI(c.Label)
		f, err := c.SettledFreq(idle, srv.Params().VRef)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(f)-want) > 1.5 {
			t.Errorf("%s idle-limit frequency %v, want ≈%.0f", c.Label, f, want)
		}
	}
}

func TestStaticPerCoreFreqEnvelope(t *testing.T) {
	srv := Reference()
	p := srv.Params()
	for _, c := range srv.AllCores() {
		fs := c.StaticPerCoreFreq()
		// Fig. 1: per-core static setpoints sit between the 4.2 GHz
		// chip-wide baseline (minus a whisker) and ~4.8 GHz.
		if fs < p.FStatic-100 || fs > 4800 {
			t.Errorf("%s static per-core frequency %v outside Fig. 1 envelope", c.Label, fs)
		}
		// And always below the core's idle fine-tuned frequency.
		idle, _, _, _, _ := ReferenceTableI(c.Label)
		fi, err := c.SettledFreq(idle, p.VRef)
		if err != nil {
			t.Fatal(err)
		}
		if fs >= fi {
			t.Errorf("%s static %v not below fine-tuned idle %v", c.Label, fs, fi)
		}
	}
}

func TestGuardMonotoneInReduction(t *testing.T) {
	srv := Reference()
	for _, c := range srv.AllCores() {
		prev := units.Picosecond(math.Inf(1))
		for r := 0; r <= c.MaxReduction(); r++ {
			g, err := c.GuardPs(r)
			if err != nil {
				t.Fatal(err)
			}
			if g >= prev {
				t.Fatalf("%s guard not strictly decreasing at r=%d (%v vs %v)", c.Label, r, g, prev)
			}
			prev = g
		}
	}
}

func TestGuardErrors(t *testing.T) {
	c := Reference().AllCores()[0]
	if _, err := c.GuardPs(-1); err == nil {
		t.Error("negative reduction accepted")
	}
	if _, err := c.GuardPs(c.PresetTaps + 1); err == nil {
		t.Error("reduction beyond preset accepted")
	}
	if _, err := c.SettledFreq(c.PresetTaps+1, 1.25); err == nil {
		t.Error("SettledFreq beyond preset accepted")
	}
}

func TestInsertedDelayPanicsOutOfRange(t *testing.T) {
	c := Reference().AllCores()[0]
	defer func() {
		if recover() == nil {
			t.Error("out-of-range tap index did not panic")
		}
	}()
	c.InsertedDelayPs(-1)
}

func TestSettledFreqMonotoneInVoltage(t *testing.T) {
	c := Reference().AllCores()[3]
	prev := units.MHz(0)
	for v := units.Volt(1.10); v <= 1.30; v += 0.01 {
		f, err := c.SettledFreq(2, v)
		if err != nil {
			t.Fatal(err)
		}
		if f <= prev {
			t.Fatalf("frequency not increasing with voltage at %v", v)
		}
		prev = f
	}
}

func TestRequiredGuardMonotoneInScore(t *testing.T) {
	for _, c := range Reference().AllCores() {
		prev := units.Picosecond(0)
		for s := 0.0; s <= 1.0; s += 0.02 {
			g := c.RequiredGuardPs(s)
			if g < prev {
				t.Fatalf("%s required guard decreased at score %.2f", c.Label, s)
			}
			prev = g
		}
	}
}

func TestFailureProbMonotoneInReduction(t *testing.T) {
	for _, c := range Reference().AllCores() {
		prev := -1.0
		for r := 0; r <= c.MaxReduction(); r++ {
			p, err := c.FailureProb(r, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if p < prev-1e-12 {
				t.Fatalf("%s failure prob decreased at r=%d", c.Label, r)
			}
			if p < 0 || p > 1 {
				t.Fatalf("%s failure prob %g out of range", c.Label, p)
			}
			prev = p
		}
	}
}

func TestFailureProbAtLimitsIsExtreme(t *testing.T) {
	for _, c := range Reference().AllCores() {
		idle, _, _, _, _ := ReferenceTableI(c.Label)
		pAt, err := c.FailureProb(idle, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pAt > 1e-4 {
			t.Errorf("%s failure prob at idle limit = %g, want ≤1e-4", c.Label, pAt)
		}
		if idle+1 <= c.MaxReduction() {
			pBeyond, err := c.FailureProb(idle+1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pBeyond < 0.25 {
				t.Errorf("%s failure prob one step past idle limit = %g, want ≥0.25", c.Label, pBeyond)
			}
		}
	}
}

func TestSurvivesTrialAgreesWithFailureProb(t *testing.T) {
	c := Reference().AllCores()[0]
	idle, _, _, _, _ := ReferenceTableI(c.Label)
	src := rng.New(99)
	const n = 20000
	fails := 0
	for i := 0; i < n; i++ {
		ok, err := c.SurvivesTrial(idle+1, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			fails++
		}
	}
	want, _ := c.FailureProb(idle+1, 0)
	got := float64(fails) / n
	if math.Abs(got-want) > 0.02 {
		t.Errorf("empirical failure rate %g vs analytic %g", got, want)
	}
}

func TestRollbackAtProperties(t *testing.T) {
	for _, c := range Reference().AllCores() {
		if got := c.RollbackAt(0); got != 0 {
			t.Errorf("%s rollback at score 0 = %d", c.Label, got)
		}
		if got := c.RollbackAt(1); got != c.Vulnerability {
			t.Errorf("%s rollback at score 1 = %d, want %d", c.Label, got, c.Vulnerability)
		}
		if got := c.RollbackAt(2); got != c.Vulnerability {
			t.Errorf("%s rollback clamps above 1: got %d", c.Label, got)
		}
		prev := 0
		for s := 0.0; s <= 1; s += 0.05 {
			rb := c.RollbackAt(s)
			if rb < prev {
				t.Fatalf("%s rollback decreased at %g", c.Label, s)
			}
			prev = rb
		}
	}
}

func TestGenerateIsValidAcrossSeeds(t *testing.T) {
	prop := func(seed uint64) bool {
		srv, err := Generate(seed, GenerateOptions{})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := srv.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, c := range srv.AllCores() {
			idle := c.DeterministicLimit(0)
			ub := c.DeterministicLimit(UBenchScore)
			worst := c.DeterministicLimit(1)
			if !(idle >= ub && ub >= worst && worst >= 0) {
				t.Logf("seed %d: %s limits not monotone: %d/%d/%d", seed, c.Label, idle, ub, worst)
				return false
			}
			if idle > c.PresetTaps {
				t.Logf("seed %d: %s idle limit exceeds preset", seed, c.Label)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestGenerateExposesVariation(t *testing.T) {
	srv, err := Generate(1234, GenerateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 1000, -1
	for _, c := range srv.AllCores() {
		l := c.DeterministicLimit(0)
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	if hi-lo < 2 {
		t.Errorf("generated chip shows too little inter-core variation: limits [%d,%d]", lo, hi)
	}
}

func TestFindCore(t *testing.T) {
	srv := Reference()
	if c := srv.FindCore("P1C3"); c == nil || c.Label != "P1C3" {
		t.Error("FindCore failed for P1C3")
	}
	if c := srv.FindCore("P9C9"); c != nil {
		t.Error("FindCore returned a core for a bogus label")
	}
}

func TestReferenceCoreLabels(t *testing.T) {
	labels := ReferenceCoreLabels()
	if len(labels) != 16 || labels[0] != "P0C0" || labels[15] != "P1C7" {
		t.Errorf("labels = %v", labels)
	}
	if _, _, _, _, ok := ReferenceTableI("nope"); ok {
		t.Error("ReferenceTableI accepted a bogus label")
	}
}

func TestScaleTrialNoiseDeepCopy(t *testing.T) {
	base := Reference()
	scaled := base.ScaleTrialNoise(2)
	for i, c := range scaled.AllCores() {
		orig := base.AllCores()[i]
		if math.Abs(c.SigmaFrac-2*orig.SigmaFrac) > 1e-15 {
			t.Errorf("%s sigma not scaled: %g vs %g", c.Label, c.SigmaFrac, orig.SigmaFrac)
		}
		// Mutating the copy must not touch the original.
		c.StepPs[1] += 100
		if orig.StepPs[1] == c.StepPs[1] {
			t.Fatalf("%s step table aliased", c.Label)
		}
		c.StepPs[1] -= 100
	}
	// Scaled-up noise never raises a deterministic limit.
	for i, c := range scaled.AllCores() {
		orig := base.AllCores()[i]
		if c.DeterministicLimit(0) > orig.DeterministicLimit(0) {
			t.Errorf("%s noisier limit exceeds original", c.Label)
		}
	}
}

func TestScaleTrialNoisePanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-positive scale accepted")
		}
	}()
	Reference().ScaleTrialNoise(0)
}

func TestCloneNeverAliasesReference(t *testing.T) {
	ref := Reference()
	clone := ref.Clone()
	if err := clone.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}

	// Snapshot the reference before mutating the clone.
	type snap struct {
		path, synth, idle, ubench units.Picosecond
		sigma                     float64
		step1                     units.Picosecond
		skew0                     units.Picosecond
		preset                    int
	}
	before := map[string]snap{}
	for _, c := range ref.AllCores() {
		before[c.Label] = snap{
			path: c.PathPs, synth: c.SynthPs, idle: c.IdleGuardPs,
			ubench: c.UBenchGuardPs, sigma: c.SigmaFrac,
			step1: c.StepPs[1], skew0: c.SiteSkewPs[0], preset: c.PresetTaps,
		}
	}

	// Mutate every field of every cloned core, including slice elements:
	// the aliasing bugs Clone exists to prevent live in shared backing
	// arrays, not in the scalar copies.
	for _, c := range clone.AllCores() {
		c.PathPs *= 2
		c.SynthPs *= 2
		c.IdleGuardPs *= 2
		c.UBenchGuardPs *= 2
		c.SigmaFrac *= 10
		c.PresetTaps = 1
		for k := range c.StepPs {
			c.StepPs[k] += 1000
		}
		for k := range c.SiteSkewPs {
			c.SiteSkewPs[k] -= 1000
		}
	}

	for _, c := range ref.AllCores() {
		b := before[c.Label]
		if c.PathPs != b.path || c.SynthPs != b.synth || c.IdleGuardPs != b.idle ||
			c.UBenchGuardPs != b.ubench || c.PresetTaps != b.preset {
			t.Fatalf("%s: scalar field of the reference changed after mutating a clone", c.Label)
		}
		// Aliasing check: the value must be bit-identical to its snapshot;
		// any change at all is the bug.
		if c.SigmaFrac != b.sigma {
			t.Fatalf("%s: SigmaFrac of the reference changed after mutating a clone", c.Label)
		}
		if c.StepPs[1] != b.step1 {
			t.Fatalf("%s: StepPs backing array is shared with the clone", c.Label)
		}
		if c.SiteSkewPs[0] != b.skew0 {
			t.Fatalf("%s: SiteSkewPs backing array is shared with the clone", c.Label)
		}
	}

	// A clone of a clone must be equally independent, and params must
	// survive the copy so the clone still validates and settles.
	if clone.Params() != ref.Params() {
		t.Fatalf("clone dropped the chip-level params")
	}
}

// uncached is a copy of c whose uBench limit is recomputed from its
// fields on the spot: the computation the cached limit must equal.
func uncached(c *CoreProfile) *CoreProfile {
	nc := *c
	nc.ubLimit = nc.limitForGuard(nc.UBenchGuardPs)
	return &nc
}

// checkCacheCurrent fails unless every core of s gives, for every
// workload score, the same requirement, limit and per-reduction failure
// probability as the uncached computation, bit for bit.
func checkCacheCurrent(t *testing.T, stage string, s *ServerProfile) {
	t.Helper()
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	for _, c := range s.AllCores() {
		want := uncached(c)
		for _, w := range workload.All() {
			score := w.StressScore
			if got, exp := c.RequiredGuardPs(score), want.RequiredGuardPs(score); bits(float64(got)) != bits(float64(exp)) {
				t.Fatalf("%s: %s RequiredGuardPs(%s) = %v, uncached %v", stage, c.Label, w.Name, got, exp)
			}
			if got, exp := c.DeterministicLimit(score), want.DeterministicLimit(score); got != exp {
				t.Fatalf("%s: %s DeterministicLimit(%s) = %d, uncached %d", stage, c.Label, w.Name, got, exp)
			}
			for r := 0; r <= c.MaxReduction(); r++ {
				got, err1 := c.FailureProb(r, score)
				exp, err2 := want.FailureProb(r, score)
				if err1 != nil || err2 != nil {
					t.Fatalf("%s: %s FailureProb(%d, %s): %v / %v", stage, c.Label, r, w.Name, err1, err2)
				}
				if bits(got) != bits(exp) {
					t.Fatalf("%s: %s FailureProb(%d, %s) = %g, uncached %g", stage, c.Label, r, w.Name, got, exp)
				}
			}
		}
	}
}

// TestCachedUBenchLimitStaysCurrent checks the cached uBench limit on
// the reference and 20 generated servers after construction, Clone and
// ScaleTrialNoise: each must leave every derived value equal to the
// uncached computation.
func TestCachedUBenchLimitStaysCurrent(t *testing.T) {
	servers := []*ServerProfile{Reference()}
	for seed := uint64(1); seed <= 20; seed++ {
		s, err := Generate(seed, GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
	}
	for i, s := range servers {
		checkCacheCurrent(t, fmt.Sprintf("server %d built", i), s)
		checkCacheCurrent(t, fmt.Sprintf("server %d cloned", i), s.Clone())
		checkCacheCurrent(t, fmt.Sprintf("server %d noise ×2", i), s.ScaleTrialNoise(2))
	}
}
