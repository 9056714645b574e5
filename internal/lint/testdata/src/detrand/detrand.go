// Package detrand is a fixture for the determinism rule (detflow): every
// ambient-entropy source it bans, written directly in entry points, in
// package initialization and in a test, plus a repeated use that gets
// no second chain and the allowed alternatives.
package detrand

import (
	"math/rand" // want "detrand.init reaches math/rand (chain repro/internal/lint/testdata/src/detrand.init)"
	"os"
	"time"
)

// Bad uses every ambient-entropy source the rule bans, directly in an
// entry point: each use is both direct and reached, and keeps the chain
// message.
func Bad() float64 {
	t0 := time.Now()                          // want "detrand.Bad reaches time.Now (chain repro/internal/lint/testdata/src/detrand.Bad)"
	elapsed := time.Since(t0)                 // want "reaches time.Since"
	_ = os.Getenv("SEED")                     // want "reaches os.Getenv"
	return rand.Float64() + elapsed.Seconds() // want "reaches math/rand"
}

// BadAgain repeats a sink an entry point already reached: only the first
// use carries the chain, and this one is reported directly.
func BadAgain() (int64, int64) {
	a := time.Now().UnixNano() // want "BadAgain reaches time.Now"
	b := time.Now().UnixNano() // want "simulation package uses time.Now"
	return a, b
}

// now takes the function value without calling it: still a wall-clock
// dependency, reached through package initialization.
var now = time.Now // want "detrand.init reaches time.Now"

// Good: deterministic work and simulated time are fine.
func Good(step int) float64 {
	const dt = 0.25e-3 // simulated control-interval seconds
	return float64(step) * dt
}
