package fsp_test

import (
	"testing"
	"unsafe"

	"repro/internal/chip"
	"repro/internal/fsp"
	"repro/internal/lifetime"
	"repro/internal/rng"
)

// TestMarginsPollAllocs pins the sentinel poll's allocations on the
// reference server: a steady-state Client.Margins over a Loopback
// allocates nothing (the loopback reuses the repeated command line's
// string, the session its field slice, and the client its result slice
// and label strings); Session.Exec("margins") allocates once, for the
// reply string; and a drift epoch allocates nothing either.
func TestMarginsPollAllocs(t *testing.T) {
	ctl := fsp.NewController(chip.NewReference())
	cli := fsp.NewClient(fsp.NewLoopback(fsp.NewSession(ctl)), fsp.ClientOptions{})
	first, err := cli.Margins()
	if err != nil {
		t.Fatal(err)
	}
	firstCore := first[0].Core
	firstLast := first[len(first)-1].Core
	second, err := cli.Margins()
	if err != nil {
		t.Fatal(err)
	}
	if &second[0] != &first[0] || len(second) != len(first) {
		t.Fatalf("a second Margins call returned a new backing array")
	}
	if unsafe.StringData(second[0].Core) != unsafe.StringData(firstCore) ||
		unsafe.StringData(second[len(second)-1].Core) != unsafe.StringData(firstLast) {
		t.Fatalf("a second Margins call allocated its labels again")
	}
	if n := testing.AllocsPerRun(200, func() {
		ctl.Invalidate()
		if _, err := cli.Margins(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Client.Margins allocates %v times per poll, want 0", n)
	}

	sess := fsp.NewSession(fsp.NewController(chip.NewReference()))
	sess.Exec("margins")
	if n := testing.AllocsPerRun(200, func() { sess.Exec("margins") }); n > 1 {
		t.Errorf("Session.Exec(\"margins\") allocates %v times, want at most 1", n)
	}

	m := chip.NewReference()
	ov := lifetime.NewOverlay(m, lifetime.Params{}, 3, rng.New(1).Split("lifetime/drift"))
	active := make([]bool, len(m.AllCores()))
	for i := range active {
		active[i] = true
	}
	if n := testing.AllocsPerRun(200, func() { ov.Advance(6, active) }); n != 0 {
		t.Errorf("Overlay.Advance allocates %v times per epoch, want 0", n)
	}
}
