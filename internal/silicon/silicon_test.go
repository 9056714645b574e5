package silicon

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestProfileValidateCatchesBadness: each edit to the reference
// server's P0C3 (first four rows) or to its labels ran and reported
// nonsense limits before Validate caught it. A NaN sigma fails every
// run; a NaN or negative gamma breaks the rollback curve; a duplicate
// label shadows the core behind it from every lookup by label.
func TestProfileValidateCatchesBadness(t *testing.T) {
	bad := []func(*ServerProfile){
		func(s *ServerProfile) { s.Chips[0].Cores[3].SigmaFrac = math.NaN() },
		func(s *ServerProfile) { s.Chips[0].Cores[3].Gamma = math.NaN() },
		func(s *ServerProfile) { s.Chips[0].Cores[3].Gamma = -1 },
		func(s *ServerProfile) { s.Chips[0].Cores[3].Label = "P0C0" },
		func(s *ServerProfile) { s.Chips[0].Cores[3].SigmaFrac = math.Inf(1) },
		func(s *ServerProfile) { s.Chips[0].Cores[3].Gamma = 0 },
		func(s *ServerProfile) { s.Chips[0].Cores[3].Gamma = math.Inf(1) },
		func(s *ServerProfile) { s.Chips[1].Cores[7].Label = "P0C3" },
		func(s *ServerProfile) { s.Chips[1].Label = "P0" },
	}
	if err := Reference().Validate(); err != nil {
		t.Fatalf("reference server invalid: %v", err)
	}
	for i, mutate := range bad {
		s := Reference().Clone()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
}

func TestScale(t *testing.T) {
	if got := Scale(VRef); math.Abs(got-1) > 1e-12 {
		t.Errorf("Scale(VRef) = %g, want 1", got)
	}
	// Lower voltage → slower circuits → larger scale.
	if Scale(1.20) <= 1 {
		t.Error("Scale below VRef should exceed 1")
	}
	if Scale(1.30) >= 1 {
		t.Error("Scale above VRef should be below 1")
	}
	// ~20 mV sag ≈ 2.2% delay at the POWER7+ point.
	got := Scale(VRef - 0.020)
	if math.Abs(got-1.0227) > 0.001 {
		t.Errorf("Scale(VRef−20mV) = %g, want ≈1.0227", got)
	}
}

func TestSettleFreqCap(t *testing.T) {
	if got := SettleFreq(1, VRef); got != FMaxHW {
		t.Errorf("tiny guard should clamp to FMaxHW, got %v", got)
	}
	if got := SettleFreq(0, VRef); got != FMaxHW {
		t.Errorf("zero guard should clamp to FMaxHW, got %v", got)
	}
}

// settleFreqReference is SettleFreq's formula with the scale computed
// inside, as it read before the scale-taking form existed.
func settleFreqReference(guard units.Picosecond, v units.Volt) units.MHz {
	if guard <= 0 {
		return FMaxHW
	}
	den := float64(v - VTh)
	if den <= 1e-6 {
		den = 1e-6
	}
	scale := float64(VRef-VTh) / den
	f := units.Picosecond(float64(guard) * scale).Frequency()
	return f.Clamp(0, FMaxHW)
}

// TestSettleFreqAtScaleMatchesSettleFreq pins the scale-taking settle
// form bit for bit against SettleFreq and the formula both came from:
// guards at and below zero, tiny and huge guards, voltages at, below
// and just above the VTh + 1e-6 floor of Scale, and random draws.
func TestSettleFreqAtScaleMatchesSettleFreq(t *testing.T) {
	floor := VTh + 1e-6
	guards := []units.Picosecond{-100, -1e-300, units.Picosecond(math.Copysign(0, -1)), 0,
		1e-300, 1, 50, 187.5, 240, 1e6, units.Picosecond(math.Inf(1))}
	volts := []units.Volt{floor, units.Volt(math.Nextafter(float64(floor), 0)),
		units.Volt(math.Nextafter(float64(floor), 2)), VTh, VTh - 0.1, 0, -1,
		0.6, 1.0, 1.2, VRef, 1.4, units.Volt(math.NaN())}
	bits := func(f units.MHz) uint64 { return math.Float64bits(float64(f)) }
	check := func(g units.Picosecond, v units.Volt) {
		t.Helper()
		want := settleFreqReference(g, v)
		if got := SettleFreqAtScale(g, Scale(v)); bits(got) != bits(want) {
			t.Fatalf("SettleFreqAtScale(%v, Scale(%v)) = %v, want %v", g, v, got, want)
		}
		if got := SettleFreq(g, v); bits(got) != bits(want) {
			t.Fatalf("SettleFreq(%v, %v) = %v, want %v", g, v, got, want)
		}
	}
	for _, g := range guards {
		for _, v := range volts {
			check(g, v)
		}
	}
	src := rng.New(1).Split("settle-at-scale")
	for i := 0; i < 10000; i++ {
		check(units.Picosecond(src.Float64()*400-20), units.Volt(float64(VTh)+src.Float64()*1.2-0.1))
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
	for _, c := range Reference().AllCores() {
		f := c.DefaultFreq()
		if math.Abs(float64(f-FDefault)) > 3.5*FDefaultJitterMHz {
			t.Errorf("%s default frequency %v too far from %v", c.Label, f, FDefault)
		}
	}
}

// TestReferenceFreqBits pins every reference core's static per-core
// and default-ATM frequency bit for bit. Fig. 1 and every golden print
// whole MHz, so a change in the low bits — a platform constant folded at
// a precision other than float64's, say — passes them all; this test
// does not.
func TestReferenceFreqBits(t *testing.T) {
	want := map[string][2]uint64{
		"P0C0": {0x40b15838a76a0dec, 0x40b2036350df265f},
		"P0C1": {0x40b14f5f80baffb7, 0x40b1f130c5a7568e},
		"P0C2": {0x40b07ad9f0614960, 0x40b20fd57be79d5e},
		"P0C3": {0x40b1dcf8b6d7eb86, 0x40b1d7d942e90422},
		"P0C4": {0x40b18477423ad607, 0x40b20c89f603b5dd},
		"P0C5": {0x40b0f68caa25cf23, 0x40b1eec681bf400b},
		"P0C6": {0x40b1334da13ce14a, 0x40b1faff3eecf396},
		"P0C7": {0x40b03c99cd2dcc32, 0x40b1fafc67b19ed9},
		"P1C0": {0x40b0827df5725295, 0x40b1fe0c169779ba},
		"P1C1": {0x40b13618dc47711f, 0x40b1ecce8534cc82},
		"P1C2": {0x40b0a74c636d5468, 0x40b2015b8ce0d6c3},
		"P1C3": {0x40b15e8f0e84394f, 0x40b1eacfbf4db8e9},
		"P1C4": {0x40b0ed9e7660e361, 0x40b208a249f39c1c},
		"P1C5": {0x40b0f26ea3da9395, 0x40b20aa8796da07a},
		"P1C6": {0x40b1a4fc34e1b61e, 0x40b1f18bf8eafa6c},
		"P1C7": {0x40b1942c51ccb0bf, 0x40b1fb51e1cb4d54},
	}
	cores := Reference().AllCores()
	if len(cores) != len(want) {
		t.Fatalf("reference has %d cores, want %d", len(cores), len(want))
	}
	for _, c := range cores {
		w, ok := want[c.Label]
		if !ok {
			t.Fatalf("no pinned bits for %s", c.Label)
		}
		fs, fd := c.StaticPerCoreFreq(), c.DefaultFreq()
		if got := math.Float64bits(float64(fs)); got != w[0] {
			t.Errorf("%s StaticPerCoreFreq = %v (%#x), want bits %#x", c.Label, fs, got, w[0])
		}
		if got := math.Float64bits(float64(fd)); got != w[1] {
			t.Errorf("%s DefaultFreq = %v (%#x), want bits %#x", c.Label, fd, got, w[1])
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
		f, err := c.SettledFreq(idle, VRef)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(f)-want) > 1.5 {
			t.Errorf("%s idle-limit frequency %v, want ≈%.0f", c.Label, f, want)
		}
	}
}

func TestStaticPerCoreFreqEnvelope(t *testing.T) {
	for _, c := range Reference().AllCores() {
		fs := c.StaticPerCoreFreq()
		// Fig. 1: per-core static setpoints sit between the 4.2 GHz
		// chip-wide baseline (minus a whisker) and ~4.8 GHz.
		if fs < FStatic-100 || fs > 4800 {
			t.Errorf("%s static per-core frequency %v outside Fig. 1 envelope", c.Label, fs)
		}
		// And always below the core's idle fine-tuned frequency.
		idle, _, _, _, _ := ReferenceTableI(c.Label)
		fi, err := c.SettledFreq(idle, VRef)
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
		// The Table I idle limit at score 0, and the deterministic limit
		// at score 1 (the voltage virus), whose hazard explodes within
		// two steps.
		cases := []struct {
			score        float64
			limit, steps int
		}{{0, idle, 1}, {1, c.DeterministicLimit(1), 2}}
		for _, in := range cases {
			pAt, err := c.FailureProb(in.limit, in.score)
			if err != nil {
				t.Fatal(err)
			}
			if pAt > 1e-4 {
				t.Errorf("%s failure prob at the score-%g limit = %g, want ≤1e-4", c.Label, in.score, pAt)
			}
			if in.limit+in.steps <= c.MaxReduction() {
				pBeyond, err := c.FailureProb(in.limit+in.steps, in.score)
				if err != nil {
					t.Fatal(err)
				}
				if pBeyond < 0.25 {
					t.Errorf("%s failure prob %d step(s) past the score-%g limit = %g, want ≥0.25", c.Label, in.steps, in.score, pBeyond)
				}
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
	if n := len(referenceLimits); n != 16 || referenceLimits[0].label != "P0C0" || referenceLimits[15].label != "P1C7" {
		t.Errorf("Table I has %d rows from %s to %s", n, referenceLimits[0].label, referenceLimits[n-1].label)
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
	tables := map[*CoreProfile][]units.Picosecond{}
	for _, c := range ref.AllCores() {
		before[c.Label] = snap{
			path: c.PathPs, synth: c.SynthPs, idle: c.IdleGuardPs,
			ubench: c.UBenchGuardPs, sigma: c.SigmaFrac,
			step1: c.StepPs[1], skew0: c.SiteSkewPs[0], preset: c.PresetTaps,
		}
	}
	for _, s := range []*ServerProfile{ref, clone} {
		for _, c := range s.AllCores() {
			tables[c] = append([]units.Picosecond(nil), c.ins...)
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
		// An append must not write past the steps into the table that
		// shares their buffer.
		c.StepPs = append(c.StepPs, 1000, 1000)
		for k := range c.SiteSkewPs {
			c.SiteSkewPs[k] -= 1000
		}
	}

	// The tables change only on Refresh: neither the reference's nor the
	// clone's moved.
	for c, want := range tables {
		if !slices.Equal(c.ins, want) {
			t.Fatalf("%s: inserted-delay table changed from %v to %v after the clone's steps were written and appended to",
				c.Label, want, c.ins)
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
