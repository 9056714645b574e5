package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("trials_total", "stage", "idle")
	c.Inc()
	c.Add(3)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 4 {
		t.Fatalf("counter value = %d, want 4", got)
	}
	if r.Counter("trials_total", "stage", "idle") != c {
		t.Fatalf("re-registration returned a different counter handle")
	}

	g := r.Gauge("stress_limit", "core", "EP00")
	g.Set(2.5)
	g.Add(-0.5)
	if got := g.Value(); got != 2.0 {
		t.Fatalf("gauge value = %g, want 2", got)
	}

	h := r.Histogram("attempts", []float64{1, 2, 4})
	for _, v := range []float64{1, 1, 2, 3, 9} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("histogram count = %d, want 5", got)
	}
	if got := h.Sum(); got != 16 {
		t.Fatalf("histogram sum = %g, want 16", got)
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"bad metric name", func(r *Registry) { r.Counter("has space") }},
		{"odd labels", func(r *Registry) { r.Counter("c", "k") }},
		{"bad label name", func(r *Registry) { r.Counter("c", "1bad", "v") }},
		{"kind mismatch", func(r *Registry) { r.Counter("m"); r.Gauge("m") }},
		{"empty buckets", func(r *Registry) { r.Histogram("h", nil) }},
		{"unsorted buckets", func(r *Registry) { r.Histogram("h", []float64{2, 1}) }},
		{"bucket mismatch", func(r *Registry) {
			r.Histogram("h", []float64{1, 2})
			r.Histogram("h", []float64{1, 3})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestSnapshotJSONFormat(t *testing.T) {
	r := NewRegistry()
	// Registration order deliberately scrambled: export must sort.
	r.Gauge("zz_gauge").Set(1.5)
	r.Counter("aa_total", "core", "EP01").Inc()
	r.Counter("aa_total", "core", "EP00").Add(2)
	h := r.Histogram("hh", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(5)

	want := `{"metrics":[` +
		`{"name":"aa_total","labels":"core=\"EP00\"","type":"counter","value":2},` +
		`{"name":"aa_total","labels":"core=\"EP01\"","type":"counter","value":1},` +
		`{"name":"hh","labels":"","type":"histogram","count":2,"sum":5.5,` +
		`"buckets":[{"le":"1","count":1},{"le":"2","count":1},{"le":"+Inf","count":2}],` +
		`"quantiles":[{"q":0.5,"v":1},{"q":0.95,"v":2},{"q":0.99,"v":2}]},` +
		`{"name":"zz_gauge","labels":"","type":"gauge","value":1.5}]}`
	if got := string(r.SnapshotJSON()); got != want {
		t.Fatalf("SnapshotJSON:\n%s\nwant:\n%s", got, want)
	}
}

// snapshotLabels returns the label bodies of r's series in export
// order, decoded from SnapshotJSON.
func snapshotLabels(t *testing.T, r *Registry) []string {
	t.Helper()
	var doc struct {
		Metrics []struct {
			Labels string `json:"labels"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(r.SnapshotJSON(), &doc); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, m := range doc.Metrics {
		out = append(out, m.Labels)
	}
	return out
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "core", "EP\"0\\0\n").Inc()
	want := `core="EP\"0\\0\n"`
	if got := snapshotLabels(t, r); len(got) != 1 || got[0] != want {
		t.Fatalf("labels = %q, want [%q]", got, want)
	}
}

func TestLabelsSortedByKey(t *testing.T) {
	r := NewRegistry()
	// Same series regardless of argument order.
	a := r.Counter("c", "b", "2", "a", "1")
	b := r.Counter("c", "a", "1", "b", "2")
	if a != b {
		t.Fatalf("label order created distinct series")
	}
	if got := snapshotLabels(t, r); len(got) != 1 || got[0] != `a="1",b="2"` {
		t.Fatalf("labels not key-sorted: %q", got)
	}
}

func TestSnapshotJSONValidAndDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b_total", "core", "EP01").Inc()
		r.Counter("a_total").Add(7)
		r.Gauge("g").Set(0.25)
		h := r.Histogram("h", []float64{1, 10}, "verb", "ping")
		h.Observe(3)
		return r
	}
	s1 := build().SnapshotJSON()
	s2 := build().SnapshotJSON()
	if !bytes.Equal(s1, s2) {
		t.Fatalf("snapshots differ:\n%s\n%s", s1, s2)
	}
	if bytes.ContainsRune(s1, '\n') {
		t.Fatalf("SnapshotJSON is not a single line: %q", s1)
	}
	var doc struct {
		Metrics []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(s1, &doc); err != nil {
		t.Fatalf("SnapshotJSON not valid JSON: %v\n%s", err, s1)
	}
	if len(doc.Metrics) != 4 {
		t.Fatalf("got %d metrics, want 4: %s", len(doc.Metrics), s1)
	}
	if doc.Metrics[0]["name"] != "a_total" {
		t.Fatalf("metrics not sorted by name: %s", s1)
	}
}

func TestNilRegistryExports(t *testing.T) {
	var r *Registry
	var b bytes.Buffer
	if got := string(r.SnapshotJSON()); got != `{"metrics":[]}` {
		t.Fatalf("nil SnapshotJSON = %q", got)
	}
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != `{"metrics":[]}`+"\n" {
		t.Fatalf("nil WriteJSON = %q", got)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", []float64{10, 100})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 200))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// disabledTrialInstrumentation is the exact call sequence an
// instrumented trial hot path pays with the plane disabled: resolved
// nil handles, one span, a few counter bumps, one observation.
func disabledTrialInstrumentation(tr *Tracer, c *Counter, g *Gauge, h *Histogram) {
	sp := tr.Begin("charact", "trial", "EP00")
	c.Inc()
	c.Add(2)
	g.Set(1.5)
	h.Observe(3)
	tr.Instant("charact", "retry", "EP00")
	sp.End()
}

func TestDisabledObsZeroAlloc(t *testing.T) {
	var r *Registry
	var tr *Tracer
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil) // nil registry: bounds never validated
	allocs := testing.AllocsPerRun(100, func() {
		disabledTrialInstrumentation(tr, c, g, h)
	})
	if allocs != 0 {
		t.Fatalf("disabled obs plane allocates: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkDisabledTrialInstrumentation(b *testing.B) {
	var r *Registry
	var tr *Tracer
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledTrialInstrumentation(tr, c, g, h)
	}
}

func BenchmarkEnabledTrialInstrumentation(b *testing.B) {
	r := NewRegistry()
	tr := NewTracer()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2, 4})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledTrialInstrumentation(tr, c, g, h)
	}
}
