package guard

import (
	"testing"

	"repro/internal/obs"
)

func TestGateLimitAndRelease(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(GateOptions{Name: "t", Limit: 2, Obs: reg})
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("acquisitions under the limit shed")
	}
	if g.TryAcquire() {
		t.Fatal("gate admitted over the limit")
	}
	if got := g.Depth(); got != 2 {
		t.Fatalf("Depth() = %d, want 2", got)
	}
	if got := g.Sheds(); got != 1 {
		t.Fatalf("Sheds() = %d, want 1", got)
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("gate shed after a release")
	}
	// Double release must clamp, not widen admission.
	g.Release()
	g.Release()
	g.Release()
	g.Release()
	if got := g.Depth(); got != 0 {
		t.Fatalf("Depth() after over-release = %d, want 0", got)
	}
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("gate shed under the limit after over-release")
	}
	if g.TryAcquire() {
		t.Fatal("over-release widened the gate limit")
	}
}

func TestAdmissionNilSafe(t *testing.T) {
	var g *Gate
	for i := 0; i < 100; i++ {
		if !g.TryAcquire() {
			t.Fatal("nil gate shed")
		}
	}
	g.Release()
	if g.Sheds() != 0 || g.Depth() != 0 {
		t.Fatal("nil gate counted something")
	}
}
