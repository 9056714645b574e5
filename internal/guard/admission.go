package guard

import (
	"sync"

	"repro/internal/obs"
)

// GateOptions configures a bounded-capacity gate. The zero value
// selects the defaults noted on each field.
type GateOptions struct {
	// Name labels the gate's metric series. Default "default".
	Name string
	// Limit bounds concurrently held slots. Default 16.
	Limit int
	// Obs, when non-nil, exports guard_gate_depth (held slots) and
	// guard_gate_shed_total under the gate name.
	Obs *obs.Registry
}

func (o GateOptions) withDefaults() GateOptions {
	if o.Name == "" {
		o.Name = "default"
	}
	if o.Limit <= 0 {
		o.Limit = 16
	}
	return o
}

// Gate is a bounded work/admission queue with explicit backpressure:
// TryAcquire never blocks — over the limit it sheds, and the caller
// answers its protocol's busy line in-band. The nil *Gate is the
// disabled guard: it always admits and counts nothing.
//
//atm:nilsafe
type Gate struct {
	opt GateOptions

	mu    sync.Mutex
	depth int
	sheds int64

	depthG *obs.Gauge
	shedC  *obs.Counter
}

// NewGate returns an empty gate.
func NewGate(o GateOptions) *Gate {
	o = o.withDefaults()
	g := &Gate{opt: o}
	if o.Obs != nil {
		g.depthG = o.Obs.Gauge("guard_gate_depth", "name", o.Name)
		g.shedC = o.Obs.Counter("guard_gate_shed_total", "name", o.Name)
	}
	return g
}

// TryAcquire claims a slot, or sheds when the gate is full. It never
// blocks.
//
//atm:hotpath
func (g *Gate) TryAcquire() bool {
	if g == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.depth >= g.opt.Limit {
		g.sheds++
		g.shedC.Inc()
		return false
	}
	g.depth++
	g.depthG.Set(float64(g.depth))
	return true
}

// Release returns a slot claimed by TryAcquire. Releasing below zero
// is clamped — a double release is a bug in the caller but must not
// turn the gate into an unbounded admission hole.
//
//atm:hotpath
func (g *Gate) Release() {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.depth > 0 {
		g.depth--
	}
	g.depthG.Set(float64(g.depth))
}

// Depth returns the currently held slots (0 on nil).
func (g *Gate) Depth() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.depth
}

// Sheds returns how many acquisitions the gate has refused (0 on nil).
func (g *Gate) Sheds() int64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.sheds
}
