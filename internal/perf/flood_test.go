package perf

import (
	"bytes"
	"testing"
)

// TestFloodDeterministic is the PR's headline guarantee: two
// identically-seeded flood runs produce the same result modulo the
// wall clock, and the artifact is byte-identical once timing is
// stripped.
func TestFloodDeterministic(t *testing.T) {
	o := DefaultFloodOptions(true)
	a, err := Flood(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Flood(o)
	if err != nil {
		t.Fatal(err)
	}
	aa, bb := *a, *b
	aa.WallNS, bb.WallNS = 0, 0
	if aa != bb {
		t.Fatalf("seeded runs diverged:\n%+v\n%+v", aa, bb)
	}
	ca, err := FloodDoc(o, true, a).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := FloodDoc(o, true, b).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical artifacts diverged:\n%s\n%s", ca, cb)
	}
}

func TestFloodDrivesGuardPlane(t *testing.T) {
	o := DefaultFloodOptions(true)
	o.Sessions = 10
	o.MaxSessions = 4
	r, err := Flood(o)
	if err != nil {
		t.Fatal(err)
	}
	if r.ShedSessions != int64(o.Sessions-o.MaxSessions) {
		t.Errorf("shed %d sessions, want %d", r.ShedSessions, o.Sessions-o.MaxSessions)
	}
	admitted := int64(o.MaxSessions)
	if want := admitted * int64(o.Commands); r.Issued != want || r.Executed != want {
		t.Errorf("issued/executed = %d/%d, want %d (admitted sessions run their full budget)",
			r.Issued, r.Executed, want)
	}
	if r.P50Ticks <= 0 || r.P99Ticks < r.P50Ticks {
		t.Errorf("implausible latency quantiles: p50=%g p99=%g", r.P50Ticks, r.P99Ticks)
	}
	if r.WallNS <= 0 {
		t.Error("wall clock not measured")
	}
}

// TestFloodGarbageAnsweredInBand: an all-garbage flood gets an in-band
// error for every command, and every admitted session still runs its
// whole budget: no guard cuts a session off for speaking garbage.
func TestFloodGarbageAnsweredInBand(t *testing.T) {
	o := DefaultFloodOptions(true)
	o.Garbage = 1000
	r, err := Flood(o)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(o.MaxSessions * o.Commands)
	if r.Issued != want || r.Executed != want || r.Errors != want {
		t.Errorf("issued/executed/errors = %d/%d/%d, want %d each", r.Issued, r.Executed, r.Errors, want)
	}
}

func TestFloodSeedChangesOutcome(t *testing.T) {
	a, err := Flood(DefaultFloodOptions(true))
	if err != nil {
		t.Fatal(err)
	}
	o2 := DefaultFloodOptions(true)
	o2.Seed = 2
	b, err := Flood(o2)
	if err != nil {
		t.Fatal(err)
	}
	// Counts may coincide, but the full latency trajectory almost
	// certainly doesn't; guard against a seed that is silently ignored.
	if a.P50Ticks == b.P50Ticks && a.P95Ticks == b.P95Ticks && a.P99Ticks == b.P99Ticks &&
		a.Errors == b.Errors && a.Issued == b.Issued {
		t.Error("different seeds produced identical outcomes — seed likely unused")
	}
}

func TestFloodOptionValidation(t *testing.T) {
	bad := []FloodOptions{
		{Sessions: 0, Commands: 1, Pipeline: 1},
		{Sessions: 1, Commands: 0, Pipeline: 1},
		{Sessions: 1, Commands: 1, Pipeline: 0},
		{Sessions: 1, Commands: 1, Pipeline: 1, Garbage: 1001},
		{Sessions: 1, Commands: 1, Pipeline: 1, Garbage: -1},
		{Sessions: 1, Commands: 1, Pipeline: 1, MaxSessions: -1},
	}
	for i, o := range bad {
		if _, err := Flood(o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
}

func TestFloodDocShape(t *testing.T) {
	o := DefaultFloodOptions(true)
	r, err := Flood(o)
	if err != nil {
		t.Fatal(err)
	}
	doc := FloodDoc(o, true, r)
	if doc.Bench != "fsp" || doc.Schema != SchemaVersion || !doc.Quick {
		t.Fatalf("doc header wrong: %+v", doc)
	}
	if doc.Flood == nil || doc.Flood.Executed != r.Executed {
		t.Fatalf("flood row missing or wrong: %+v", doc.Flood)
	}
	if doc.Timing.TotalNS != r.WallNS || doc.Timing.ReqPerSec <= 0 {
		t.Fatalf("timing row wrong: %+v", doc.Timing)
	}
	raw, err := doc.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"p99_ticks"`)) || !bytes.Contains(raw, []byte(`"req_per_sec"`)) {
		t.Fatalf("artifact missing expected fields:\n%s", raw)
	}
}
