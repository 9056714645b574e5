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

	if got := reg.Histogram("fsp_session_latency", latencyBuckets, "verb", "ping").Count(); got != 2 {
		t.Errorf("ping latency count = %d, want 2", got)
	}
	if got := reg.Histogram("fsp_session_latency", latencyBuckets, "verb", "freq").Count(); got != 1 {
		t.Errorf("freq latency count = %d, want 1", got)
	}
	if got := reg.Histogram("fsp_session_latency", latencyBuckets, "verb", "unknown").Count(); got != 1 {
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
	if got := reg.Histogram("fsp_session_latency", latencyBuckets, "verb", "ping").Count(); got != 0 {
		t.Errorf("latency recorded without a clock: count = %d", got)
	}
}

func TestServerForwardsClockToLocalSession(t *testing.T) {
	srv := NewServer(newCtl(t))
	reg := obs.NewRegistry()
	srv.Observe(reg)
	srv.SetClock(tickClock())
	sess := srv.localSession()
	sess.Exec("ping x")
	if got := reg.Histogram("fsp_session_latency", latencyBuckets, "verb", "ping").Count(); got != 1 {
		t.Errorf("local session did not inherit server clock: count = %d", got)
	}
}

func TestServerAdmitMatchesGuardPlane(t *testing.T) {
	srv := NewServer(newCtl(t))
	reg := obs.NewRegistry()
	srv.Observe(reg)
	srv.Guard(2)

	if !srv.admit() || !srv.admit() {
		t.Fatal("first two admissions refused")
	}
	if srv.admit() {
		t.Fatal("third admission allowed past MaxSessions=2")
	}
	if got := reg.Counter("guard_gate_shed_total", "name", "fsp_sessions").Value(); got != 1 {
		t.Errorf("guard_gate_shed_total = %d, want 1", got)
	}
	srv.release()
	if !srv.admit() {
		t.Fatal("admission refused after release")
	}
	if got := reg.Gauge("guard_gate_depth", "name", "fsp_sessions").Value(); got != 2 {
		t.Errorf("guard_gate_depth = %v, want 2", got)
	}
	srv.release()
	srv.release()
	if got := reg.Gauge("guard_gate_depth", "name", "fsp_sessions").Value(); got != 0 {
		t.Errorf("guard_gate_depth = %v after every release, want 0", got)
	}
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
