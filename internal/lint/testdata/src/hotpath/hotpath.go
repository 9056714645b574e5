// Package hotpath is the fixture for the //atm:hotpath allocation
// lint: one annotated function with one of every flagged construct, an
// annotated function that is clean because it pre-sizes, and an
// unannotated function where anything goes.
package hotpath

import (
	"fmt"
	"strings"
	"sync"
)

func cleanup() {}

// takeAny boxes its argument at every concrete call site.
func takeAny(v any) any { return v }

// Hot carries the directive and one of every flagged construct.
//
//atm:hotpath
func Hot(vals []float64, m map[string]int) float64 {
	defer cleanup() // want "defer schedules a deferred call"
	go cleanup()    // want "go statement spawns a goroutine"
	f := func() {}  // want "function literal may escape"
	f()
	for k := range m { // want "range over map"
		_ = k
	}
	var out []float64
	out = append(out, vals...) // want "not pre-sized with make"
	_ = out
	var sink any
	sink = vals[0] // want "assignment boxes float64"
	_ = sink
	takeAny(vals[0])  // want "argument boxes float64"
	c := any(vals[0]) // want "conversion boxes float64"
	_ = c
	fmt.Println(vals) // want "fmt.Println allocates"
	var b strings.Builder
	b.WriteString("x") // want "strings.Builder.WriteString allocates"
	return vals[0]
}

type hotErr struct{}

func (hotErr) Error() string { return "hot" }

// HotErr boxes its concrete error into the interface result.
//
//atm:hotpath
func HotErr() error {
	return &hotErr{} // want "return boxes *hotErr"
}

// HotOK pre-sizes its slice with make(len, cap): clean.
//
//atm:hotpath
func HotOK(vals []float64) []float64 {
	out := make([]float64, 0, len(vals))
	out = append(out, vals...)
	return out
}

type locked struct {
	mu sync.Mutex
	n  int
}

// Bump holds the lock across the update; `defer mu.Unlock()` is the
// one allowed defer (the compiler open-codes it).
//
//atm:hotpath
func (l *locked) Bump() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.n++
	return l.n
}

// Cold has no directive: the same constructs pass unremarked.
func Cold(vals []float64) any {
	var sink any
	sink = vals[0]
	return sink
}
