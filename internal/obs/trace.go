package obs

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// Tracer collects spans and instants keyed on simulated or logical
// time and writes them as a Chrome trace_event JSON file — openable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. A nil *Tracer is the
// disabled plane: every method no-ops and allocates nothing.
//
// Time is a monotone microsecond clock the tracer owns. Callers with
// real simulated time (the discrete-event scheduler, the transient
// stepper) advance it with SetTimeUS; callers whose work has no
// simulated duration (characterization trials) let it tick once per
// event, which preserves ordering and nesting without inventing fake
// durations. The wall clock is never consulted, so identically-seeded
// runs emit byte-identical trace files.
//
// Tracks (the "threads" of the trace view) are named lanes — one per
// core label, protocol session, or scheduler queue. Track ids are
// assigned in first-use order and announced with thread_name metadata
// events, so the viewer shows the lane names.
//
//atm:nilsafe
type Tracer struct {
	mu     sync.Mutex
	nowUS  int64
	events []traceEvent
	tids   map[string]int64
	order  []string // track names in tid order
}

// traceEvent is one emitted trace_event record.
type traceEvent struct {
	name, cat string
	ph        byte // 'X' complete, 'i' instant
	ts, dur   int64
	tid       int64
	args      []kv
}

type kv struct{ k, v string }

// NewTracer returns an enabled, empty tracer.
func NewTracer() *Tracer {
	return &Tracer{tids: map[string]int64{}}
}

// SetTimeUS advances the trace clock to us microseconds of simulated
// time. Moving backwards is ignored — the clock is monotone so the
// emitted file is deterministic even when instrumentation layers
// disagree about time.
//
//atm:hotpath
func (t *Tracer) SetTimeUS(us int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if us > t.nowUS {
		t.nowUS = us
	}
	t.mu.Unlock()
}

// tick advances the logical clock one microsecond. Caller holds mu.
func (t *Tracer) tick() int64 {
	t.nowUS++
	return t.nowUS
}

// tidFor resolves a track name to its id. Caller holds mu.
func (t *Tracer) tidFor(track string) int64 {
	if id, ok := t.tids[track]; ok {
		return id
	}
	id := int64(len(t.order) + 1)
	t.tids[track] = id
	t.order = append(t.order, track)
	return id
}

// Span is one open interval; close it with End. A nil *Span (from a
// disabled tracer) accepts Arg and End as no-ops.
//
//atm:nilsafe
type Span struct {
	t         *Tracer
	name, cat string
	ts        int64
	tid       int64
	args      []kv
}

// Begin opens a span on the named track at the current trace time
// (advancing the logical clock one tick). Returns nil when the tracer
// is disabled — formatting work for Arg should be guarded on that.
func (t *Tracer) Begin(cat, name, track string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Span{t: t, cat: cat, name: name, ts: t.tick(), tid: t.tidFor(track)}
}

// Arg attaches a key/value argument to the span; returns the span for
// chaining.
//
//atm:hotpath
func (sp *Span) Arg(k, v string) *Span {
	if sp == nil {
		return nil
	}
	sp.args = append(sp.args, kv{k, v})
	return sp
}

// End closes the span at the current trace time (advancing the logical
// clock one tick) and emits it.
//
//atm:hotpath
func (sp *Span) End() {
	if sp == nil {
		return
	}
	t := sp.t
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.tick()
	t.events = append(t.events, traceEvent{
		name: sp.name, cat: sp.cat, ph: 'X',
		ts: sp.ts, dur: end - sp.ts, tid: sp.tid, args: sp.args,
	})
}

// Instant emits a zero-duration marker on the named track. args are
// alternating key, value pairs (a trailing odd key is dropped).
func (t *Tracer) Instant(cat, name, track string, args ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'i',
		ts: t.tick(), tid: t.tidFor(track), args: pairArgs(args),
	})
}

// Complete emits an already-closed span with explicit simulated
// timestamps (microseconds) — the discrete-event scheduler path, where
// begin and end are known exactly. The trace clock is advanced past the
// span's end so logical events stay ordered after it.
func (t *Tracer) Complete(cat, name, track string, tsUS, durUS int64, args ...string) {
	if t == nil {
		return
	}
	if durUS < 0 {
		durUS = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if end := tsUS + durUS; end > t.nowUS {
		t.nowUS = end
	}
	t.events = append(t.events, traceEvent{
		name: name, cat: cat, ph: 'X',
		ts: tsUS, dur: durUS, tid: t.tidFor(track), args: pairArgs(args),
	})
}

func pairArgs(args []string) []kv {
	if len(args) < 2 {
		return nil
	}
	out := make([]kv, 0, len(args)/2)
	for i := 0; i+1 < len(args); i += 2 {
		out = append(out, kv{args[i], args[i+1]})
	}
	return out
}

// WriteJSON writes the Chrome trace_event file: thread_name metadata
// for every track in tid order, then the events in emission order.
// Byte-identical across runs with identical contents. A nil tracer
// writes an empty trace.
func (t *Tracer) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(`{"traceEvents":[`)
	if t != nil {
		t.mu.Lock()
		first := true
		for i, track := range t.order {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, `{"ph":"M","name":"thread_name","pid":1,"tid":%d,"args":{"name":`, i+1)
			b.Write(jsonString(track))
			b.WriteString(`}}`)
		}
		for _, e := range t.events {
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(`{"name":`)
			b.Write(jsonString(e.name))
			b.WriteString(`,"cat":`)
			b.Write(jsonString(e.cat))
			fmt.Fprintf(&b, `,"ph":%q,"ts":%d`, string(e.ph), e.ts)
			if e.ph == 'X' {
				fmt.Fprintf(&b, `,"dur":%d`, e.dur)
			}
			if e.ph == 'i' {
				b.WriteString(`,"s":"t"`)
			}
			fmt.Fprintf(&b, `,"pid":1,"tid":%d`, e.tid)
			if len(e.args) > 0 {
				b.WriteString(`,"args":{`)
				for i, a := range e.args {
					if i > 0 {
						b.WriteByte(',')
					}
					b.Write(jsonString(a.k))
					b.WriteByte(':')
					b.Write(jsonString(a.v))
				}
				b.WriteByte('}')
			}
			b.WriteByte('}')
		}
		t.mu.Unlock()
	}
	b.WriteString("]}\n")
	_, err := w.Write(b.Bytes())
	return err
}
