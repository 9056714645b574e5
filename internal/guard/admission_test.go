package guard

import (
	"testing"

	"repro/internal/obs"
)

func TestBucketBurstAndRefill(t *testing.T) {
	reg := obs.NewRegistry()
	var clock int64
	b := NewBucket(BucketOptions{Name: "t", Capacity: 3, Now: func() int64 { return clock }, Obs: reg})

	// The bucket starts full: the burst is admitted within one tick.
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("burst request %d shed", i)
		}
	}
	// Dry: with no tick elapsed, every further attempt is shed.
	for i := 0; i < 5; i++ {
		if b.Allow() {
			t.Fatalf("dry bucket admitted attempt %d", i)
		}
	}
	// Sustained: one tick buys one token, so one attempt in each tick
	// is admitted and the rest shed.
	admitted := 0
	for clock = 1; clock <= 10; clock++ {
		for i := 0; i < 4; i++ {
			if b.Allow() {
				admitted++
			}
		}
	}
	if admitted != 10 {
		t.Fatalf("sustained admissions = %d over 10 ticks, want 10 (one per tick)", admitted)
	}
	if got := b.Sheds(); got != 5+30 {
		t.Fatalf("Sheds() = %d, want 35", got)
	}
	if got := reg.Counter("guard_bucket_admitted_total", "name", "t").Value(); got != 13 {
		t.Fatalf("guard_bucket_admitted_total = %d, want 13", got)
	}
}

func TestBucketExternalClock(t *testing.T) {
	var clock int64
	b := NewBucket(BucketOptions{Capacity: 2, Now: func() int64 { return clock }})
	if !b.Allow() || !b.Allow() {
		t.Fatal("initial burst shed")
	}
	if b.Allow() {
		t.Fatal("dry bucket admitted with no elapsed time")
	}
	clock = 1
	if !b.Allow() {
		t.Fatal("refilled token shed")
	}
	if b.Allow() {
		t.Fatal("bucket admitted beyond earned tokens")
	}
	// Three ticks earn three tokens, of which the bucket holds two.
	clock = 4
	if !b.Allow() || !b.Allow() {
		t.Fatal("refilled burst shed")
	}
	if b.Allow() {
		t.Fatal("bucket admitted beyond its capacity")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("NewBucket without Now did not panic")
		}
	}()
	NewBucket(BucketOptions{Capacity: 2})
}

func TestBucketFullDoesNotBank(t *testing.T) {
	var clock int64
	b := NewBucket(BucketOptions{Capacity: 1, Now: func() int64 { return clock }})
	// A long idle period at capacity must not bank future tokens.
	clock = 1000
	if !b.Allow() {
		t.Fatal("full bucket shed")
	}
	if b.Allow() {
		t.Fatal("bucket banked tokens while full")
	}
	clock = 1001
	if !b.Allow() {
		t.Fatal("token earned after draining shed")
	}
}

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
	var b *Bucket
	var g *Gate
	for i := 0; i < 100; i++ {
		if !b.Allow() {
			t.Fatal("nil bucket shed")
		}
		if !g.TryAcquire() {
			t.Fatal("nil gate shed")
		}
	}
	g.Release()
	if b.Sheds() != 0 || g.Sheds() != 0 || g.Depth() != 0 {
		t.Fatal("nil handles counted something")
	}
}
