// Package obs is the deterministic observability plane of the
// reproduction: a metrics registry (counters, gauges, fixed-bucket
// histograms) and a span tracer, both keyed on *simulated or logical*
// time — never the wall clock — so two identically-seeded runs export
// byte-identical metrics snapshots and trace files. It is the software
// counterpart of the telemetry SCOMs the paper's off-chip controller
// reads: the control loop is a measurement system, and this package
// makes the measurement system itself measurable.
//
// Design rules:
//
//   - Disabled is the default and costs ~nothing. Every handle method
//     (Counter.Inc, Histogram.Observe, Tracer.Begin, Span.End, ...)
//     is safe on a nil receiver and allocates nothing; a nil *Registry
//     hands out nil handles, so instrumented hot paths pay one branch
//     per event. TestDisabledObsZeroAlloc enforces 0 allocs/op.
//   - Exports are byte-deterministic: families and series are sorted,
//     label maps are never ranged over, floats are formatted with
//     strconv ('g', -1, 64), and the tracer stamps events from a
//     monotone logical clock the caller advances (SetTimeUS) or that
//     ticks once per event.
//   - No wall clock, no ambient randomness: the package is in
//     atmlint's detflow scope alongside the simulation packages.
//
// Registration (Registry.Counter/Gauge/Histogram) is get-or-create and
// cheap but not free; instrumented code resolves handles once, outside
// its hot loops. Metric and label names are validated at registration
// and panic on misuse — registration happens at setup time, where a
// loud failure beats a silently missing series.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// kind classifies a metric family.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Registry holds metric families keyed by name. The zero value of
// *Registry (nil) is the disabled plane: it hands out nil handles and
// exports nothing. Construct with NewRegistry to enable collection.
// Registration and export lock internally; handle updates are atomic,
// so concurrent sessions (the FSP server) may share one registry.
//
//atm:nilsafe
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is every series sharing one metric name.
type family struct {
	name   string
	kind   kind
	bounds []float64          // histogram bucket upper bounds
	series map[string]*series // keyed by rendered label body
}

// series is one (name, labels) time series.
type series struct {
	labelBody string // `k="v",k2="v2"` or ""
	c         *Counter
	g         *Gauge
	h         *Histogram
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter for (name, labels), creating it on first
// use. labels are alternating key, value pairs. Returns nil (a valid
// no-op handle) on a nil registry.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.getSeries(name, kindCounter, nil, labels).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getSeries(name, kindGauge, nil, labels).g
}

// Histogram returns the fixed-bucket histogram for (name, labels),
// creating it on first use. bounds are strictly ascending upper bucket
// bounds; a +Inf bucket is implicit. Every series of one family must
// use identical bounds.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.getSeries(name, kindHistogram, bounds, labels).h
}

// getSeries is the shared get-or-create path.
func (r *Registry) getSeries(name string, k kind, bounds []float64, labels []string) *series {
	validateName(name)
	body := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		if k == kindHistogram {
			bounds = validateBounds(name, bounds)
		}
		fam = &family{name: name, kind: k, bounds: bounds, series: map[string]*series{}}
		r.families[name] = fam
	}
	if fam.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, fam.kind, k))
	}
	if k == kindHistogram && !sameBounds(fam.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q registered with mismatched buckets", name))
	}
	s, ok := fam.series[body]
	if !ok {
		s = &series{labelBody: body}
		switch k {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = newHistogram(fam.bounds)
		}
		fam.series[body] = s
	}
	return s
}

// validateName panics unless name is a valid metric/label identifier.
func validateName(name string) {
	if !validIdent(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels sorts the key=value pairs by key and renders the
// canonical label body (`k="v",k2="v2"`). Values are escaped per the
// Prometheus text format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validIdent(labels[i]) {
			panic(fmt.Sprintf("obs: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, pair{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue escapes backslash, double quote and newline, per the
// Prometheus exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

func validateBounds(name string, bounds []float64) []float64 {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q has no buckets", name))
	}
	out := append([]float64(nil), bounds...)
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
		}
	}
	return out
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		//lint:ignore floatcmp bucket bounds are configuration constants compared for identity, never computed values
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---- handles ----

// Counter is a monotone event count. All methods are safe on nil (the
// disabled handle) and on concurrent use.
//
//atm:nilsafe
type Counter struct{ v atomic.Int64 }

// Inc adds one.
//
//atm:hotpath
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; non-positive n is ignored (counters are monotone).
//
//atm:hotpath
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on the nil handle).
//
//atm:hotpath
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value.
//
//atm:nilsafe
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
//
//atm:hotpath
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by d.
//
//atm:hotpath
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value (0 on the nil handle).
//
//atm:hotpath
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative in
// the exposition, non-cumulative internally.
//
//atm:nilsafe
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
//
//atm:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ExportQuantiles is the fixed quantile set every exposition renders
// for a non-empty histogram: the latency percentiles the fsp "stats"
// verb reports per verb.
var ExportQuantiles = []float64{0.5, 0.95, 0.99}

// Quantile estimates the q-quantile (0 < q < 1) of the recorded
// distribution by linear interpolation within the fixed bucket that
// contains the target rank — the same estimator Prometheus's
// histogram_quantile applies server-side, computed here so a
// deterministic simulation can report p50/p95/p99 without a scrape
// stack. Like that estimator it assumes observations spread uniformly
// within a bucket, takes the lower bound of the first bucket as 0 when
// its upper bound is positive, and clamps ranks landing in the +Inf
// bucket to the highest finite bound. NaN is returned on a nil or
// empty histogram and for q outside (0, 1).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || q <= 0 || q >= 1 {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.buckets {
		in := float64(h.buckets[i].Load())
		if in == 0 {
			cum += in
			continue
		}
		if cum+in < rank && i < len(h.buckets)-1 {
			cum += in
			continue
		}
		if i == len(h.bounds) {
			// +Inf bucket: no finite upper bound to interpolate toward.
			return h.bounds[len(h.bounds)-1]
		}
		hi := h.bounds[i]
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		} else if hi <= 0 {
			// No sensible lower bound below a non-positive first bucket.
			return hi
		}
		frac := (rank - cum) / in
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return math.NaN()
}

// Count returns the number of observations (0 on the nil handle).
//
//atm:hotpath
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on the nil handle).
//
//atm:hotpath
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// ---- export ----

// sortedFamilies snapshots the family list in name order.
func (r *Registry) sortedFamilies() []*family {
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	return fams
}

// sortedSeries snapshots one family's series in label order.
func (f *family) sortedSeries() []*series {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.series[k]
	}
	return out
}

// formatFloat renders a float the same way on every run.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SnapshotJSON returns the registry as one compact JSON line (no
// trailing newline) with deterministic ordering — the payload of the
// FSP protocol's in-band "stats" verb. A nil registry snapshots to
// {"metrics":[]}.
func (r *Registry) SnapshotJSON() []byte {
	var b bytes.Buffer
	b.WriteString(`{"metrics":[`)
	if r != nil {
		r.mu.Lock()
		first := true
		for _, fam := range r.sortedFamilies() {
			for _, s := range fam.sortedSeries() {
				if !first {
					b.WriteByte(',')
				}
				first = false
				b.WriteString(`{"name":`)
				b.Write(jsonString(fam.name))
				b.WriteString(`,"labels":`)
				b.Write(jsonString(s.labelBody))
				b.WriteString(`,"type":`)
				b.Write(jsonString(fam.kind.String()))
				switch fam.kind {
				case kindCounter:
					fmt.Fprintf(&b, `,"value":%d`, s.c.Value())
				case kindGauge:
					b.WriteString(`,"value":`)
					b.Write(jsonNumber(s.g.Value()))
				case kindHistogram:
					fmt.Fprintf(&b, `,"count":%d,"sum":`, s.h.Count())
					b.Write(jsonNumber(s.h.Sum()))
					b.WriteString(`,"buckets":[`)
					cum := int64(0)
					for i := range s.h.buckets {
						if i > 0 {
							b.WriteByte(',')
						}
						cum += s.h.buckets[i].Load()
						le := "+Inf"
						if i < len(fam.bounds) {
							le = formatFloat(fam.bounds[i])
						}
						b.WriteString(`{"le":`)
						b.Write(jsonString(le))
						fmt.Fprintf(&b, `,"count":%d}`, cum)
					}
					b.WriteByte(']')
					if s.h.Count() > 0 {
						b.WriteString(`,"quantiles":[`)
						for i, q := range ExportQuantiles {
							if i > 0 {
								b.WriteByte(',')
							}
							b.WriteString(`{"q":`)
							b.Write(jsonNumber(q))
							b.WriteString(`,"v":`)
							b.Write(jsonNumber(s.h.Quantile(q)))
							b.WriteByte('}')
						}
						b.WriteByte(']')
					}
				}
				b.WriteByte('}')
			}
		}
		r.mu.Unlock()
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// WriteJSON writes SnapshotJSON plus a trailing newline.
func (r *Registry) WriteJSON(w io.Writer) error {
	if _, err := w.Write(r.SnapshotJSON()); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// jsonString marshals s as a JSON string literal.
func jsonString(s string) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// A Go string always marshals; keep the export total anyway.
		return []byte(`""`)
	}
	return b
}

// jsonNumber renders v as a JSON number, quoting the non-finite values
// JSON cannot carry.
func jsonNumber(v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return jsonString(formatFloat(v))
	}
	return []byte(formatFloat(v))
}
