// Package main is the deadcode fixture: a program whose functions are
// reached, or not, in each of the ways the rule models.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

func main() {
	direct()
	fmt.Println(apply(callback))
	c := &counter{}
	bump := c.bump // method value
	bump()
	var r Runner = impl{}
	var s stepper = impl{}
	fmt.Println(r.Run(), s.step())
	fmt.Println(label{}, failure{})
	if out, err := json.Marshal(doc{}); err == nil {
		fmt.Println(string(out))
	}
	words := byLen{"ccc", "a", "bb"}
	sort.Sort(words)
	fmt.Println(errors.Is(failure{}, errors.ErrUnsupported))
}

// direct is called by name.
func direct() {}

// apply calls the function value it is handed.
func apply(f func() int) int { return f() }

// callback is only ever a function value passed to apply.
func callback() int { return 3 }

// counter's bump is taken as a method value.
type counter struct{ n int }

func (c *counter) bump() { c.n++ }

// Runner is an exported interface main dispatches through.
type Runner interface{ Run() int }

// stepper is an unexported interface main dispatches through.
type stepper interface{ step() int }

// impl implements both interfaces.
type impl struct{}

func (impl) Run() int  { return 1 }
func (impl) step() int { return 2 }

func (impl) idle() int { return 0 } // want "no program reaches repro/internal/lint/testdata/src/deadcode.(impl).idle;"

// label is printed, so fmt calls String through fmt.Stringer.
type label struct{}

func (label) String() string { return "label" }

// failure reaches fmt as an error and errors.Is unwraps it.
type failure struct{ cause error }

func (failure) Error() string   { return "failure" }
func (f failure) Unwrap() error { return f.cause }

// doc is encoded through json.Marshaler.
type doc struct{}

func (doc) MarshalJSON() ([]byte, error) { return []byte("{}"), nil }

// byLen sorts through sort.Interface.
type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func unused() {} // want "no program reaches repro/internal/lint/testdata/src/deadcode.unused;"

// onlyTests is called from a test function only.
func onlyTests() int { return 4 } // want "no program reaches repro/internal/lint/testdata/src/deadcode.onlyTests;"

// onlyTestInit is called from a test file's var initializer only.
func onlyTestInit() int { return 5 } // want "no program reaches repro/internal/lint/testdata/src/deadcode.onlyTestInit;"

// onlyExample is called from an Example function only, which go test
// runs as a program.
func onlyExample() int { return 6 }

// onlyExamples is called from a test function whose name goes on with
// a lower-case letter, which go test does not run as an example.
func onlyExamples() int { return 7 } // want "no program reaches repro/internal/lint/testdata/src/deadcode.onlyExamples;"

// Exported has no caller; being exported does not make it a root.
func Exported() {} // want "no program reaches repro/internal/lint/testdata/src/deadcode.Exported;"

// kept is unreached on purpose.
//
//lint:ignore deadcode fixture: a directive keeps an unreached function
func kept() {}
