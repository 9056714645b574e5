package fsp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
)

// loopbackClient builds a client over a synchronous loopback session on
// a reference machine.
func loopbackClient(t *testing.T, opts ClientOptions) (*Client, *Controller) {
	t.Helper()
	ctl := NewController(chip.NewReference())
	return NewClient(NewLoopback(NewSession(ctl)), opts), ctl
}

func TestMarginsVerbFormat(t *testing.T) {
	ctl := NewController(chip.NewReference())
	sess := NewSession(ctl)
	out := sess.Exec("margins")
	if !strings.HasPrefix(out, "ok ") {
		t.Fatalf("margins answered %q", out)
	}
	fields := strings.Fields(out[len("ok "):])
	if len(fields) != 16 {
		t.Fatalf("margins reported %d cores, want 16: %q", len(fields), out)
	}
	// Address order: chip 0's cores first, each core label once.
	if !strings.HasPrefix(fields[0], "P0C0=") || !strings.HasPrefix(fields[15], "P1C7=") {
		t.Fatalf("margins not in address order: %q", out)
	}
	if sess.Exec("margins extra") != "err usage: margins" {
		t.Fatalf("margins accepted arguments")
	}
}

func TestMarginRegisterMatchesSafetyCriterion(t *testing.T) {
	ctl := NewController(chip.NewReference())
	m := ctl.m
	core := m.AllCores()[0]
	p := core.Profile

	// At the deterministic worst-case limit the margin is, by
	// construction of the limit criterion, at least the calibration
	// headroom (4.5 sigma) and less than that plus one tap step.
	lim := p.DeterministicLimit(1)
	if err := m.ProgramCPM(p.Label, lim); err != nil {
		t.Fatal(err)
	}
	v, err := ctl.Getscom(MakeCoreAddr(0, 0, regMargin))
	if err != nil {
		t.Fatal(err)
	}
	sigma := float64(int64(v)) / 1000
	if sigma < 4.5 {
		t.Fatalf("margin at the worst-case limit = %.3f sigma, want >= 4.5", sigma)
	}

	// One step past the limit the criterion fails: margin below 4.5.
	if lim < p.MaxReduction() {
		if err := m.ProgramCPM(p.Label, lim+1); err != nil {
			t.Fatal(err)
		}
		v, err = ctl.Getscom(MakeCoreAddr(0, 0, regMargin))
		if err != nil {
			t.Fatal(err)
		}
		if s := float64(int64(v)) / 1000; s >= 4.5 {
			t.Fatalf("margin one past the limit = %.3f sigma, want < 4.5", s)
		}
	}

	// The register is read-only.
	if err := ctl.Putscom(MakeCoreAddr(0, 0, regMargin), 1); err == nil {
		t.Fatal("margin register accepted a write")
	}
}

func TestClientMarginsLoopback(t *testing.T) {
	cli, ctl := loopbackClient(t, ClientOptions{})
	// Programmed to its full reduction, the first core reports a
	// negative margin, so the read also crosses the formatter's sign
	// path.
	first := ctl.m.AllCores()[0].Profile
	if err := ctl.m.ProgramCPM(first.Label, first.MaxReduction()); err != nil {
		t.Fatal(err)
	}
	ms, err := cli.Margins()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 16 {
		t.Fatalf("Margins returned %d cores, want 16", len(ms))
	}
	if ms[0].Sigma >= 0 {
		t.Fatalf("%s at its full reduction reports margin %v, want negative", ms[0].Core, ms[0].Sigma)
	}
	for i, core := range ctl.m.AllCores() {
		if ms[i].Core != core.Profile.Label {
			t.Fatalf("margin %d is %s, want %s", i, ms[i].Core, core.Profile.Label)
		}
		want := float64(marginMilliSigma(core)) / 1000
		if ms[i].Sigma != want {
			t.Fatalf("%s margin = %v, want %v", ms[i].Core, ms[i].Sigma, want)
		}
	}
}

// TestMarginsRejectsNonFinite: the server only writes [-]d.ddd, and a
// NaN sample would fail every comparison in the sentinel's Observe and
// switch it off for that core, so a NaN or infinite value is a bad
// payload that leaves the previous poll's result intact.
func TestMarginsRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{"NaN", "nan", "Inf", "-inf", "+Inf", "infinity"} {
		payload := "P0C0=" + bad + " P0C1=4.500"
		cli := NewClient(newScriptedTransport("ok P0C0=4.200 P0C1=4.300", "ok "+payload), ClientOptions{})
		prev, err := cli.Margins()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Margins(); err == nil || !strings.Contains(err.Error(), "bad margins payload") {
			t.Errorf("%q: err = %v, want a bad margins payload error", payload, err)
		}
		if prev[0] != (CoreMargin{"P0C0", 4.2}) || prev[1] != (CoreMargin{"P0C1", 4.3}) {
			t.Errorf("%q: the previous poll's result became %v", payload, prev)
		}
	}
}

func TestLoopbackQuitAndResync(t *testing.T) {
	cli, _ := loopbackClient(t, ClientOptions{})
	if out, err := cli.Exec("ping live-1"); err != nil || out != "pong live-1" {
		t.Fatalf("ping = %q, %v; want the token echoed", out, err)
	}
	if out, err := cli.Exec("quit"); err != nil || out != "bye" {
		t.Fatalf("quit = %q, %v; want bye", out, err)
	}
}

// TestAppendMilliMatchesPercentF: the margins verb's formatter writes
// the bytes fmt's "%.3f" of float64(m)/1000 writes, on the sign
// boundaries, on sampled registers up to 2^52, and up to the bound its
// doc comment states. Just past that bound the two differ: the double
// nearest m/1000 is then up to half of a 2^-9 ulp away, and "%.3f"
// rounds to a neighbouring decimal.
func TestAppendMilliMatchesPercentF(t *testing.T) {
	const bound = 1000 << 43
	ms := []int64{0, 1, -1, 999, -999, 1000, -1000, 1001, -1001, bound, -bound}
	for k := int64(1); k <= 1000; k++ {
		ms = append(ms, bound-k, -(bound - k))
	}
	src := rng.New(52)
	for k := 0; k < 20000; k++ {
		m := int64(src.Uint64() >> (12 + src.Intn(52)))
		if k%2 == 1 {
			m = -m
		}
		ms = append(ms, m)
	}
	var buf []byte
	for _, m := range ms {
		buf = appendMilli(buf[:0], m)
		if want := fmt.Sprintf("%.3f", float64(m)/1000); string(buf) != want {
			t.Fatalf("appendMilli(%d) = %q, %%.3f prints %q", m, buf, want)
		}
	}
	if got, pf := string(appendMilli(nil, bound+1)), fmt.Sprintf("%.3f", float64(bound+1)/1000); got == pf {
		t.Fatalf("appendMilli and %%.3f agree past the documented bound at %d (%q): the doc comment's bound is not tight", bound+1, got)
	}
}
