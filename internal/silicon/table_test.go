package silicon

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/units"
)

// The step-table walks the inserted-delay table replaced, kept as its
// references: each sums StepPs left to right on every call.

// walkInsertedDelay is InsertedDelayPs as a walk of StepPs[1..taps].
func walkInsertedDelay(c *CoreProfile, taps int) units.Picosecond {
	var d units.Picosecond
	for k := 1; k <= taps; k++ {
		d += c.StepPs[k]
	}
	return d
}

// walkGuards is guards as one walk of the step table in two loops: the
// first to the shallower of the guard's and the requirement's taps,
// the second on to the deeper. The rollback starts from the walked
// uBench limit, not the cached one.
func walkGuards(c *CoreProfile, reduction int, score float64) (g, req units.Picosecond, err error) {
	if reduction < 0 || reduction > c.PresetTaps {
		return 0, 0, c.reductionErr(reduction)
	}
	gTap, reqTap := c.PresetTaps-reduction, -1
	switch {
	case score <= 0:
		req = c.IdleGuardPs
	case score <= UBenchScore:
		frac := score / UBenchScore
		req = c.IdleGuardPs + units.Picosecond(frac*float64(c.UBenchGuardPs-c.IdleGuardPs))
	default:
		lim := walkLimitForGuard(c, c.UBenchGuardPs) - c.RollbackAt(normalizeAppScore(score))
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
	g = c.SynthPs + gIns + ThetaPs
	if reqTap >= 0 {
		req = c.requirementForGuard(c.SynthPs + reqIns + ThetaPs)
	}
	return g, req, nil
}

// walkLimitForGuard is limitForGuard as one forward walk of the step
// table that keeps the last tap whose guard falls short.
func walkLimitForGuard(c *CoreProfile, req units.Picosecond) int {
	need := float64(req)*(1+limitHeadroomSigmas*c.SigmaFrac) - 1e-9
	steps := c.StepPs[:c.PresetTaps+1]
	var inserted units.Picosecond
	lastShort := -1
	for t := range steps {
		if t > 0 {
			inserted += steps[t]
		}
		if !(float64(c.SynthPs+inserted+ThetaPs) >= need) {
			lastShort = t
		}
	}
	if lastShort < 0 {
		return c.PresetTaps
	}
	return max(c.PresetTaps-lastShort-1, 0)
}

// samePs reports whether a and b are the same float64, bit for bit.
func samePs(a, b units.Picosecond) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// checkTable returns an error naming the first value of c that differs
// from its step-table walk, bit for bit: a table entry, GuardPs at a
// reduction, RequiredGuardPs at a kernelScores score, the cached uBench
// limit, or limitForGuard at the idle and uBench requirements and at
// every reduction's boundary requirement.
func checkTable(c *CoreProfile) error {
	if len(c.ins) != c.PresetTaps+1 {
		return fmt.Errorf("%s: table holds %d taps, preset %d", c.Label, len(c.ins), c.PresetTaps)
	}
	for t, d := range c.ins {
		if w := walkInsertedDelay(c, t); !samePs(d, w) {
			return fmt.Errorf("%s: table[%d] = %v, walk %v", c.Label, t, d, w)
		}
	}
	reqs := []units.Picosecond{c.IdleGuardPs, c.UBenchGuardPs}
	for r := 0; r <= c.PresetTaps; r++ {
		g, err := c.GuardPs(r)
		wg, _, werr := walkGuards(c, r, 0)
		if err != nil || werr != nil || !samePs(g, wg) {
			return fmt.Errorf("%s: GuardPs(%d) = %v, %v; walk %v, %v", c.Label, r, g, err, wg, werr)
		}
		reqs = append(reqs, c.requirementForGuard(wg))
	}
	for _, score := range kernelScores {
		_, wreq, _ := walkGuards(c, c.PresetTaps, score)
		if req := c.RequiredGuardPs(score); !samePs(req, wreq) {
			return fmt.Errorf("%s: RequiredGuardPs(%v) = %v, walk %v", c.Label, score, req, wreq)
		}
	}
	if w := walkLimitForGuard(c, c.UBenchGuardPs); c.ubLimit != w {
		return fmt.Errorf("%s: cached uBench limit %d, walk %d", c.Label, c.ubLimit, w)
	}
	for _, req := range reqs {
		if got, w := c.limitForGuard(req), walkLimitForGuard(c, req); got != w {
			return fmt.Errorf("%s: limitForGuard(%v) = %d, walk %d", c.Label, req, got, w)
		}
	}
	return nil
}

// TestInsertedTableMatchesWalk holds the inserted-delay table, GuardPs,
// RequiredGuardPs, the cached uBench limit and limitForGuard to
// step-table walks, bit for bit, on the reference server, on generated
// servers 1–64, on the reference server with its trial noise doubled,
// and on reference cores refreshed after a zero (of either sign), a
// negative or a NaN step was written in place.
func TestInsertedTableMatchesWalk(t *testing.T) {
	servers := map[string]*ServerProfile{
		"reference":    Reference(),
		"noise ×2":     Reference().ScaleTrialNoise(2),
		"zero steps":   Reference(),
		"negative":     Reference(),
		"NaN step":     Reference(),
		"aged in situ": Reference(),
	}
	for seed := uint64(1); seed <= 64; seed++ {
		s, err := Generate(seed, GenerateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		servers[fmt.Sprintf("generated %d", seed)] = s
	}
	for i, c := range servers["zero steps"].AllCores() {
		c.StepPs[1+i%c.PresetTaps] = 0
		c.StepPs[c.PresetTaps] = units.Picosecond(math.Copysign(0, -1))
		c.Refresh()
	}
	for _, c := range servers["negative"].AllCores() {
		for k := 2; k < len(c.StepPs); k += 3 {
			c.StepPs[k] = -c.StepPs[k]
		}
		c.Refresh()
	}
	for i, c := range servers["NaN step"].AllCores() {
		c.StepPs[1+i%c.PresetTaps] = units.Picosecond(math.NaN())
		c.Refresh()
	}
	for _, c := range servers["aged in situ"].AllCores() {
		for k := range c.StepPs {
			c.StepPs[k] *= 1.07
		}
		c.Refresh()
	}
	for name, s := range servers {
		for _, c := range s.AllCores() {
			if err := checkTable(c); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
	}
}

// FuzzGuardTable holds the table-backed guards and limitForGuard to the
// step-table walks they replaced, bit for bit, on random step tables.
// Each input takes a reference core's envelope, gives it a preset of 1
// to MaxTaps taps whose steps are, two bits of kinds per tap, a
// positive step, a zero of either sign, a negative step or NaN, and
// then compares guards at an arbitrary reduction and score, every
// table entry, GuardPs and the cached uBench limit, and limitForGuard
// at a requirement offset from the synthetic path.
func FuzzGuardTable(f *testing.F) {
	f.Add(uint64(1), uint8(11), int8(3), 0.5, uint64(0), 0.0)
	f.Add(uint64(2), uint8(0), int8(0), 1.0, uint64(0x5555_5555_5555), 4.0)
	f.Add(uint64(3), uint8(23), int8(-1), math.NaN(), ^uint64(0), -3.0)
	f.Add(uint64(4), uint8(6), int8(8), UBenchScore, uint64(0xaaaa_aaaa), 25.0)
	f.Add(uint64(5), uint8(15), int8(16), 0.9, uint64(0x0c30_c30c_30c3), math.Inf(1))
	base := Reference().AllCores()
	f.Fuzz(func(t *testing.T, seed uint64, preset uint8, reduction int8, score float64, kinds uint64, reqOffPs float64) {
		src := rng.New(seed)
		c := base[seed%uint64(len(base))].Clone()
		c.PresetTaps = 1 + int(preset)%MaxTaps
		steps := make([]units.Picosecond, c.PresetTaps+1)
		for k := 1; k < len(steps); k++ {
			switch kinds >> (2 * (k - 1)) & 3 {
			case 0:
				steps[k] = units.Picosecond(0.5 + 8*src.Float64())
			case 1:
				steps[k] = units.Picosecond(math.Copysign(0, src.Float64()-0.5))
			case 2:
				steps[k] = units.Picosecond(-8 * src.Float64())
			default:
				steps[k] = units.Picosecond(math.NaN())
			}
		}
		c.setSteps(steps)

		g, req, err := c.guards(int(reduction), score)
		wg, wreq, werr := walkGuards(c, int(reduction), score)
		if !samePs(g, wg) || !samePs(req, wreq) || (err == nil) != (werr == nil) ||
			(err != nil && err.Error() != werr.Error()) {
			t.Fatalf("guards(%d, %v) = %v, %v, %v; walk %v, %v, %v", reduction, score, g, req, err, wg, wreq, werr)
		}
		if err := checkTable(c); err != nil {
			t.Fatal(err)
		}
		r := c.SynthPs + ThetaPs + units.Picosecond(reqOffPs)
		if got, w := c.limitForGuard(r), walkLimitForGuard(c, r); got != w {
			t.Fatalf("limitForGuard(%v) = %d, walk %d", r, got, w)
		}
	})
}

// raceEnabled is set under the race detector, whose sync.Pool drops
// pooled values at random, so fmt allocates a varying number of times.
var raceEnabled bool

// TestProfileLayout pins a core profile's size and what building a
// server allocates, so that a field added to CoreProfile, or a slice
// in place of an array, shows up here and not only in a benchmark's
// live heap. A generated 2×8 server allocates 3 times per core (its
// label, its profile, and one buffer holding the step table and the
// inserted-delay table; the site skews are an array inside the
// profile), 6 times per chip (its label, its profile and 4 growths of
// its core slice) and 3 times for the server (its profile and 2 growths
// of its chip slice). The labels come from fmt, so the count is not
// checked under the race detector.
func TestProfileLayout(t *testing.T) {
	if got, want := unsafe.Sizeof(CoreProfile{}), uintptr(176); got != want {
		t.Errorf("unsafe.Sizeof(CoreProfile{}) = %d bytes, want %d", got, want)
	}
	if raceEnabled {
		return
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := Generate(1, GenerateOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(16*3 + 2*6 + 3); n != want {
		t.Errorf("Generate allocates %v times per 2×8 server, want %v", n, want)
	}
}
