package main

import (
	"bufio"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call into a module, recorded from the benchmark's
// side of the call.
type span struct {
	Name string `json:"name"`
	// Parent indexes the enclosing span; -1 at top level.
	Parent int   `json:"parent"`
	Start  int64 `json:"start_ns"`
	End    int64 `json:"end_ns"`
	// Calls is how many calls a batched replay span covers.
	Calls int `json:"calls"`
}

// tracer keeps the traced run's spans in memory until the run ends. The
// nil *tracer is the untraced run: begin and end do nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	// sampling marks the running unit as one the runner replays, so a
	// suite records the unit's full mix rather than counts alone.
	sampling bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, the innermost open span, as covering calls calls,
// and returns its duration in ns.
func (t *tracer) end(id, calls int) int64 {
	if t == nil {
		return 0
	}
	sp := &t.spans[id]
	sp.End = time.Since(t.t0).Nanoseconds()
	sp.Calls = calls
	t.open = t.open[:len(t.open)-1]
	return sp.End - sp.Start
}

// timed runs f inside a span of calls calls and returns the mean ns per
// call.
func (t *tracer) timed(name string, calls int, f func() error) (float64, error) {
	id := t.begin(name)
	err := f()
	return float64(t.end(id, calls)) / float64(calls), err
}

// replayReps is how many times a replay that leaves its inputs unchanged
// is repeated.
const replayReps = 5

// timedReps runs f replayReps times, each inside its own span of calls
// calls, and returns the fastest repetition's ns per call: the layer's
// cost undisturbed by pauses and slow phases of the host, which stay in
// the residual.
func (t *tracer) timedReps(name string, calls int, f func() error) (float64, error) {
	per := make([]float64, replayReps)
	for k := range per {
		ns, err := t.timed(name, calls, f)
		if err != nil {
			return 0, err
		}
		per[k] = ns
	}
	return slices.Min(per), nil
}

// selfNS returns each span's self time: its duration minus the time its
// direct children cover.
func (t *tracer) selfNS() []int64 {
	self := make([]int64, len(t.spans))
	for i, sp := range t.spans {
		d := sp.End - sp.Start
		self[i] += d
		if sp.Parent >= 0 {
			self[sp.Parent] -= d
		}
	}
	return self
}

// writeFile writes the spans, each with its self time, and the run's
// attribution as one JSON document.
func (t *tracer) writeFile(path string, r *report) error {
	self := t.selfNS()
	type selfSpan struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	spans := make([]selfSpan, len(t.spans))
	for i, sp := range t.spans {
		spans[i] = selfSpan{sp, self[i]}
	}
	attribution := make([]metricValue, 0, len(r.estimates))
	names := make([]string, 0, len(r.estimates))
	for _, e := range r.estimates {
		names = append(names, e.name)
		attribution = append(attribution, metricValue{Value: e.value, Unit: e.unit})
	}
	doc := struct {
		Workload    string        `json:"workload"`
		Seed        uint64        `json:"seed"`
		Units       int           `json:"units"`
		Layers      []string      `json:"layers"`
		Attribution []metricValue `json:"attribution"`
		Spans       []selfSpan    `json:"spans"`
	}{r.workload, r.seed, r.units, names, attribution, spans}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
