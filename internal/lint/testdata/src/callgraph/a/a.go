// Package a is half of the synthetic call-graph fixture: a mutual
// recursion cycle, an interface with one local implementation, a
// dispatcher whose interface call must fan out to implementations in
// both packages, and an unexported interface with an unexported method.
package a

// Ping and Pong form a cross-function cycle.
func Ping(n int) int {
	if n <= 0 {
		return 0
	}
	return Pong(n - 1)
}

// Pong calls back into Ping.
func Pong(n int) int {
	if n <= 0 {
		return 1
	}
	return Ping(n - 1)
}

// Runner is dispatched through in Drive.
type Runner interface {
	Run() int
}

// Fast is the value-receiver implementation local to this package.
type Fast struct{}

// Run returns immediately.
func (Fast) Run() int { return 1 }

// Drive calls through the interface: the graph must record a call to
// the abstract a.(Runner).Run node, which fans out to every
// implementation.
func Drive(r Runner) int {
	return r.Run()
}

// stepper is unexported, and so is its method: dispatch must still find
// the implementation.
type stepper interface {
	step() int
}

// walker is stepper's one implementation.
type walker struct{}

func (walker) step() int { return 2 }

// Walk calls through the unexported interface.
func Walk(s stepper) int {
	return s.step()
}
