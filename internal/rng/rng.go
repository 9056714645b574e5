// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component of the simulator.
//
// Determinism matters here more than statistical sophistication: the paper's
// experiments are repeated-trial measurements whose *distributions* carry
// the insight (Fig. 7, Fig. 8), so every experiment in this repository is
// seeded and exactly reproducible. The generator is splitmix64 — tiny,
// well-distributed, and trivially splittable so that each core, CPM site
// and workload trial receives an independent stream derived from a label.
//
// math/rand would work too, but a hand-rolled splitmix keeps the streams
// stable across Go releases (math/rand's NewSource output changed meaning
// with rand/v2) and lets us derive sub-streams from strings.
package rng

import "math"

// Source is a deterministic splitmix64 generator. The zero value is a
// valid generator seeded with 0; prefer New to make seeding explicit.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source { return &Source{state: seed} }

// golden is the splitmix64 increment (2^64 / φ).
const golden = 0x9E3779B97F4A7C15

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Split returns a new independent Source derived from the current state
// and the label. Splitting does not advance the parent stream, so the
// order in which children are created relative to parent draws does not
// change the parent's sequence.
//
// Split and SplitIndex are small enough to inline, so a child that the
// caller does not leak stays on the caller's stack.
func (s *Source) Split(label string) *Source {
	return &Source{state: childSeed(s.state, label, 0, false)}
}

// SplitIndex is Split for integer labels (core index, trial number, ...).
func (s *Source) SplitIndex(label string, i int) *Source {
	return &Source{state: childSeed(s.state, label, i, true)}
}

// childSeed is the seed of the child split off a parent whose state is
// state: the parent's seed state (not its advancing position) mixed with
// the label hash, and for SplitIndex with the index too, so the same
// (seed, label[, index]) always yields the same child stream.
func childSeed(state uint64, label string, i int, indexed bool) uint64 {
	h := hashString(label)
	if indexed {
		h = mix(h, uint64(i)+golden)
	}
	return mix(state^0x4E54AD1077089B93, h)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits → [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, via the Box–Muller transform.
func (s *Source) Norm(mean, stddev float64) float64 {
	return mean + stddev*BoxMuller(s.NormUniforms())
}

// NormUniforms draws the two uniforms one Norm consumes, advancing the
// stream exactly as Norm does: u1 in (0, 1), redrawn while it is zero
// to keep Log finite, then u2 in [0, 1). Both are multiples of 2^-53.
// A caller that can decide what it needs from bounds on the draw
// (silicon.CoreProfile.SurvivesTrial) takes the uniforms and calls
// BoxMuller only when the bounds cannot decide.
func (s *Source) NormUniforms() (u1, u2 float64) {
	u1 = s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	return u1, s.Float64()
}

// BoxMuller is the standard normal deviate the Box–Muller transform
// makes of the uniforms u1 in (0, 1) and u2 in [0, 1).
func BoxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// TruncNorm returns a normal draw truncated to [lo, hi] by rejection,
// falling back to clamping after a bounded number of attempts so the
// call always terminates even for pathological bounds.
func (s *Source) TruncNorm(mean, stddev, lo, hi float64) float64 {
	for i := 0; i < 32; i++ {
		v := s.Norm(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	v := s.Norm(mean, stddev)
	return math.Min(math.Max(v, lo), hi)
}

// Exp returns an exponentially distributed value with the given rate λ.
// The mean of the distribution is 1/λ.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / rate
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// hashString is FNV-1a, inlined to avoid a hash/fnv allocation.
func hashString(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// mix combines two 64-bit values into a well-distributed third.
func mix(a, b uint64) uint64 {
	z := a + golden + b*0x9DDFEA08EB382D69
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
