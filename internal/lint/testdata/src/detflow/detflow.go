// Package detflow is the fixture for the determinism rule. The package
// path sits under the lint testdata prefix, so it is a simulation
// package and its exported functions count as entry points; findings
// land on the sink lines, deep inside helpers. The detrand fixture holds
// sink uses written directly in entry points, in package initialization
// and in a test.
package detflow

import (
	"math/rand" // want "detflow.init reaches math/rand (chain repro/internal/lint/testdata/src/detflow.init)"
	"os"
	"time"
)

// Entry reaches the wall clock two helper hops down.
func Entry() int64 {
	return helperA()
}

func helperA() int64 { return helperB() }

func helperB() int64 {
	return time.Now().UnixNano() // want "determinism taint: repro/internal/lint/testdata/src/detflow.helperB reaches time.Now"
}

// Env reads the environment through a helper.
func Env() string { return readEnv() }

func readEnv() string {
	return os.Getenv("HOME") // want "os.Getenv"
}

// Roll draws from the ambient math/rand stream through a helper.
func Roll() int { return draw() }

func draw() int {
	return rand.Intn(6) // want "math/rand"
}

// Clock abstracts a time source; dispatch must fan out to the
// wall-clock implementation.
type Clock interface{ Tick() int64 }

type wallClock struct{}

func (wallClock) Tick() int64 {
	return time.Now().UnixNano() // want "time.Now"
}

type fixedClock struct{}

func (fixedClock) Tick() int64 { return 42 }

// Dispatch calls through the interface; only wallClock's Tick is a
// sink, and it is reached by the dispatch fan-out.
func Dispatch(c Clock) int64 { return c.Tick() }

// MethodValue leaks the sink through a method value handed to a
// caller; the reference edge keeps it reachable.
func MethodValue() func() int64 {
	var w wallClock
	return w.Tick
}

// orphan is never reachable from any entry point: no chain leads to
// its wall-clock read, but it sits in a simulation package, so the use
// is flagged directly.
func orphan() int64 {
	return time.Now().UnixNano() // want "simulation package uses time.Now"
}
