package fsp

import (
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/obs"
)

// tickClock is a deterministic latency clock: every sample advances
// one tick, so each command measures exactly 1 tick of "latency".
func tickClock() func() int64 {
	var t int64
	return func() int64 { t++; return t }
}

func TestSessionLatencyHistograms(t *testing.T) {
	ctl := newCtl(t)
	reg := obs.NewRegistry()
	sess := NewSession(ctl)
	sess.Observe(reg)
	sess.SetClock(tickClock())

	for _, line := range []string{"ping a", "ping b", "freq P0C3", "bogus"} {
		sess.Exec(line)
	}

	if got := reg.Histogram("fsp_session_latency", LatencyBuckets, "verb", "ping").Count(); got != 2 {
		t.Errorf("ping latency count = %d, want 2", got)
	}
	if got := reg.Histogram("fsp_session_latency", LatencyBuckets, "verb", "freq").Count(); got != 1 {
		t.Errorf("freq latency count = %d, want 1", got)
	}
	if got := reg.Histogram("fsp_session_latency", LatencyBuckets, "verb", "unknown").Count(); got != 1 {
		t.Errorf("unknown latency count = %d, want 1", got)
	}

	// The in-band stats verb surfaces the histograms with quantiles.
	resp := sess.Exec("stats")
	if !strings.HasPrefix(resp, "ok ") {
		t.Fatalf("stats = %q", resp)
	}
	if !strings.Contains(resp, `"name":"fsp_session_latency"`) {
		t.Errorf("stats missing latency histogram: %s", resp)
	}
	if !strings.Contains(resp, `"quantiles":[{"q":0.5,"v":`) {
		t.Errorf("stats missing quantiles: %s", resp)
	}
}

func TestSessionNoClockNoLatency(t *testing.T) {
	ctl := newCtl(t)
	reg := obs.NewRegistry()
	sess := NewSession(ctl)
	sess.Observe(reg)
	sess.Exec("ping a")
	if got := reg.Histogram("fsp_session_latency", LatencyBuckets, "verb", "ping").Count(); got != 0 {
		t.Errorf("latency recorded without a clock: count = %d", got)
	}
}

func TestServerForwardsClockToLocalSession(t *testing.T) {
	srv := NewServer(newCtl(t))
	reg := obs.NewRegistry()
	srv.Observe(reg)
	srv.SetClock(tickClock())
	sess := srv.LocalSession()
	sess.Exec("ping x")
	if got := reg.Histogram("fsp_session_latency", LatencyBuckets, "verb", "ping").Count(); got != 1 {
		t.Errorf("local session did not inherit server clock: count = %d", got)
	}
}

func TestServerAdmitMatchesGuardPlane(t *testing.T) {
	srv := NewServer(newCtl(t))
	reg := obs.NewRegistry()
	srv.Observe(reg)
	if err := srv.Guard(GuardOptions{MaxSessions: 2}); err != nil {
		t.Fatal(err)
	}

	r1, ok := srv.Admit()
	r2, ok2 := srv.Admit()
	if !ok || !ok2 {
		t.Fatal("first two admissions refused")
	}
	if _, ok := srv.Admit(); ok {
		t.Fatal("third admission allowed past MaxSessions=2")
	}
	if got := reg.Counter("fsp_server_shed_total").Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
	r1()
	if _, ok := srv.Admit(); !ok {
		t.Fatal("admission refused after release")
	}
	r2()
}

// TestDisabledLatencyZeroAlloc pins the satellite requirement: with no
// registry attached, the latency instrumentation a clocked session adds
// to each command (two clock samples, map lookup, nil-handle Observe)
// allocates nothing.
func TestDisabledLatencyZeroAlloc(t *testing.T) {
	sess := NewSession(newCtl(t))
	sess.SetClock(tickClock())
	allocs := testing.AllocsPerRun(100, func() {
		began := sess.clock()
		sess.observeLatency("ping", began)
	})
	if allocs != 0 {
		t.Fatalf("disabled latency path allocates: %v allocs/op, want 0", allocs)
	}
}

func BenchmarkSessionExecPing(b *testing.B) {
	sess := NewSession(NewController(chip.NewReference()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess.Exec("ping x")
	}
}

func BenchmarkSessionExecPingClocked(b *testing.B) {
	sess := NewSession(NewController(chip.NewReference()))
	sess.SetClock(tickClock())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess.Exec("ping x")
	}
}
