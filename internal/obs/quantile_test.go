package obs

import (
	"math"
	"strings"
	"testing"
)

// almostEq compares quantile estimates with a tiny float tolerance.
func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

func TestQuantileUniformDistribution(t *testing.T) {
	// 100 observations spread uniformly over decade buckets: every
	// quantile is exactly recoverable by in-bucket interpolation.
	r := NewRegistry()
	h := r.Histogram("u", []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0.5, 50},
		{0.95, 95},
		{0.99, 99},
		{0.10, 10},
		{0.25, 25},
	}
	for _, tc := range cases {
		if got := h.Quantile(tc.q); !almostEq(got, tc.want) {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileInterpolatesWithinBucket(t *testing.T) {
	// One observation in the (0, 100] bucket: the estimator assumes a
	// uniform spread, so every quantile lands proportionally inside it.
	r := NewRegistry()
	h := r.Histogram("one", []float64{100, 200})
	h.Observe(42)
	if got := h.Quantile(0.5); !almostEq(got, 50) {
		t.Fatalf("Quantile(0.5) = %g, want 50 (midpoint of first bucket)", got)
	}
	if got := h.Quantile(0.25); !almostEq(got, 25) {
		t.Fatalf("Quantile(0.25) = %g, want 25", got)
	}
}

func TestQuantileSkewedDistribution(t *testing.T) {
	// 90 fast requests in (0,1], 9 in (1,10], 1 in (10,100]: the p50
	// sits in the first bucket, the p99 in the second, and the tail
	// observation pulls p999-style ranks into the third.
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for i := 0; i < 90; i++ {
		h.Observe(0.5)
	}
	for i := 0; i < 9; i++ {
		h.Observe(5)
	}
	h.Observe(50)
	if got := h.Quantile(0.5); !almostEq(got, 50.0/90.0) {
		t.Errorf("p50 = %g, want %g", got, 50.0/90.0)
	}
	// rank 99 → second bucket, cum 90, in 9: 1 + 9·(99−90)/9 = 10.
	if got := h.Quantile(0.99); !almostEq(got, 10) {
		t.Errorf("p99 = %g, want 10", got)
	}
	if got := h.Quantile(0.995); !almostEq(got, 10+90*(99.5-99)/1.0) {
		t.Errorf("p995 = %g, want %g", got, 10+90*(99.5-99)/1.0)
	}
}

func TestQuantileInfBucketClampsToHighestBound(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("over", []float64{1, 2})
	h.Observe(1000)
	h.Observe(2000)
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) with all mass in +Inf = %g, want 2 (highest finite bound)", got)
	}
}

func TestQuantileDegenerateInputs(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("nil Quantile = %g, want NaN", got)
	}
	r := NewRegistry()
	h := r.Histogram("e", []float64{1})
	if got := h.Quantile(0.5); !math.IsNaN(got) {
		t.Fatalf("empty Quantile = %g, want NaN", got)
	}
	h.Observe(0.5)
	for _, q := range []float64{0, 1, -1, 2} {
		if got := h.Quantile(q); !math.IsNaN(got) {
			t.Fatalf("Quantile(%g) = %g, want NaN", q, got)
		}
	}
}

func TestQuantilesRenderedInExpositions(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 2, 4}, "verb", "ping")
	for i := 0; i < 4; i++ {
		h.Observe(float64(i))
	}
	snap := string(r.SnapshotJSON())
	for _, want := range []string{`"labels":"verb=\"ping\""`, `"quantiles":[{"q":0.5,"v":1},{"q":0.95,"v":`, `{"q":0.99,"v":`} {
		if !strings.Contains(snap, want) {
			t.Errorf("SnapshotJSON missing %s: %s", want, snap)
		}
	}

	// An empty histogram renders no quantiles.
	r2 := NewRegistry()
	r2.Histogram("empty", []float64{1})
	if strings.Contains(string(r2.SnapshotJSON()), "quantiles") {
		t.Errorf("empty histogram snapshot rendered quantiles: %s", r2.SnapshotJSON())
	}
}
