package guard

import (
	"sync"

	"repro/internal/obs"
)

// BucketOptions configures a token bucket. Now is required; the zero
// value of every other field selects the default noted on it.
type BucketOptions struct {
	// Name labels the bucket's metric series. Default "default".
	Name string
	// Capacity is the burst size (maximum stored tokens; the bucket
	// starts full). Default 8.
	Capacity int64
	// Now supplies the logical clock; each tick buys one token. It is
	// required: a clock that ticked once per Allow call would earn a
	// token on every attempt, and the bucket would never shed.
	Now func() int64
	// Obs, when non-nil, exports guard_bucket_admitted_total and
	// guard_bucket_shed_total under the bucket name.
	Obs *obs.Registry
}

func (o BucketOptions) withDefaults() BucketOptions {
	if o.Name == "" {
		o.Name = "default"
	}
	if o.Capacity == 0 {
		o.Capacity = 8
	}
	return o
}

// Bucket is a deterministic token-bucket admission controller on
// logical time. The nil *Bucket is the disabled guard: Allow always
// admits and counts nothing.
//
//atm:nilsafe
type Bucket struct {
	opt BucketOptions

	mu     sync.Mutex
	tokens int64
	last   int64 // logical time of the last refill
	sheds  int64

	admittedC *obs.Counter
	shedC     *obs.Counter
}

// NewBucket returns a full bucket. It panics when o.Now is nil.
func NewBucket(o BucketOptions) *Bucket {
	if o.Now == nil {
		panic("guard: BucketOptions.Now is required")
	}
	o = o.withDefaults()
	b := &Bucket{opt: o, tokens: o.Capacity}
	if o.Obs != nil {
		b.admittedC = o.Obs.Counter("guard_bucket_admitted_total", "name", o.Name)
		b.shedC = o.Obs.Counter("guard_bucket_shed_total", "name", o.Name)
	}
	return b
}

// Allow takes one token, refilling first from elapsed logical time.
// It never blocks: a dry bucket sheds, and the caller answers its
// protocol's busy line in-band.
//
//atm:hotpath
func (b *Bucket) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if now := b.opt.Now(); now > b.last {
		b.tokens = min(b.tokens+now-b.last, b.opt.Capacity)
		b.last = now
	}
	if b.tokens <= 0 {
		b.sheds++
		b.shedC.Inc()
		return false
	}
	b.tokens--
	b.admittedC.Inc()
	return true
}

// Sheds returns how many requests the bucket has shed (0 on nil).
func (b *Bucket) Sheds() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sheds
}

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
