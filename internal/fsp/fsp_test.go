package fsp

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/chip"
)

func newCtl(t *testing.T) *Controller {
	t.Helper()
	return NewController(chip.NewReference())
}

func TestAddrPacking(t *testing.T) {
	a := MakeCoreAddr(1, 5, regFreq)
	if a.chip() != 1 || a.core() != 5 || a.fn() != regFreq {
		t.Errorf("address round trip failed: %#x → %d/%d/%d", uint32(a), a.chip(), a.core(), a.fn())
	}
	ca := MakeChipAddr(0, regChipPower)
	if ca.core() != 0xF || ca.chip() != 0 {
		t.Errorf("chip address wrong: %#x", uint32(ca))
	}
}

func TestScomCPMRoundTrip(t *testing.T) {
	ctl := newCtl(t)
	addr := MakeCoreAddr(0, 3, regCPMReduction)
	if err := ctl.Putscom(addr, 6); err != nil {
		t.Fatal(err)
	}
	v, err := ctl.Getscom(addr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 6 {
		t.Errorf("read back %d, want 6", v)
	}
	// The underlying machine must be programmed.
	core, err := ctl.m.Core("P0C3")
	if err != nil {
		t.Fatal(err)
	}
	if core.Reduction() != 6 {
		t.Errorf("machine reduction %d", core.Reduction())
	}
}

func TestScomValidation(t *testing.T) {
	ctl := newCtl(t)
	if err := ctl.Putscom(MakeCoreAddr(0, 0, regCPMReduction), 99); err == nil {
		t.Error("reduction beyond tap range accepted")
	}
	if err := ctl.Putscom(MakeCoreAddr(0, 0, regFreq), 1); err == nil {
		t.Error("write to read-only frequency register accepted")
	}
	if err := ctl.Putscom(MakeChipAddr(0, regChipPower), 1); err == nil {
		t.Error("write to chip telemetry accepted")
	}
	if _, err := ctl.Getscom(MakeCoreAddr(7, 0, regFreq)); err == nil {
		t.Error("bogus chip index accepted")
	}
	if _, err := ctl.Getscom(MakeCoreAddr(0, 12, regFreq)); err == nil {
		t.Error("bogus core index accepted")
	}
	if err := ctl.Putscom(MakeCoreAddr(0, 0, regMode), 3); err == nil {
		t.Error("bogus mode accepted")
	}
	if err := ctl.Putscom(MakeCoreAddr(0, 0, regPState), 1234); err == nil {
		t.Error("off-ladder p-state accepted")
	}
}

func TestTelemetryReflectsWrites(t *testing.T) {
	ctl := newCtl(t)
	fAddr := MakeCoreAddr(0, 3, regFreq)
	before, err := ctl.Getscom(fAddr)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.Putscom(MakeCoreAddr(0, 3, regCPMReduction), 6); err != nil {
		t.Fatal(err)
	}
	after, err := ctl.Getscom(fAddr)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before+100 {
		t.Errorf("telemetry did not track the CPM write: %d → %d", before, after)
	}
}

func TestChipTelemetry(t *testing.T) {
	ctl := newCtl(t)
	p, err := ctl.Getscom(MakeChipAddr(0, regChipPower))
	if err != nil {
		t.Fatal(err)
	}
	if p < 40_000 || p > 80_000 { // mW
		t.Errorf("idle chip power %d mW implausible", p)
	}
	v, err := ctl.Getscom(MakeChipAddr(0, regChipVolt))
	if err != nil {
		t.Fatal(err)
	}
	if v < 1200 || v > 1300 {
		t.Errorf("supply %d mV implausible", v)
	}
	inb, err := ctl.Getscom(MakeChipAddr(0, regChipInBudg))
	if err != nil {
		t.Fatal(err)
	}
	if inb != 1 {
		t.Error("idle chip outside thermal budget")
	}
}

// TestSessionScript drives the operator protocol end to end, the way
// the test floor would.
func TestSessionScript(t *testing.T) {
	ctl := newCtl(t)
	script := strings.Join([]string{
		"# deployment script",
		"cores",
		"cpm P0C3 6",
		"cpm P0C3",
		"freq P0C3",
		"mode P0C7 static",
		"pstate P0C7 3700",
		"gate P1C0 on",
		"chip P0",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := NewSession(ctl).Serve(strings.NewReader(script), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for i, l := range lines {
		if !strings.HasPrefix(l, "ok") {
			t.Errorf("line %d not ok: %q", i, l)
		}
	}
	if len(lines) != 9 {
		t.Fatalf("got %d response lines, want 9", len(lines))
	}
	if !strings.Contains(lines[0], "P0C0") || !strings.Contains(lines[0], "P1C7") {
		t.Errorf("cores listing wrong: %q", lines[0])
	}
	if lines[2] != "ok 6" {
		t.Errorf("cpm readback = %q", lines[2])
	}
	if !strings.Contains(lines[3], "MHz") {
		t.Errorf("freq response = %q", lines[3])
	}
	if !strings.Contains(lines[7], "power=") || !strings.Contains(lines[7], "budget=1") {
		t.Errorf("chip telemetry = %q", lines[7])
	}
	// Effects landed on the machine.
	core, err := ctl.m.Core("P0C7")
	if err != nil {
		t.Fatal(err)
	}
	if core.Mode() != chip.ModeStatic || core.PState() != 3700 {
		t.Error("mode/pstate commands did not apply")
	}
	g, err := ctl.m.Core("P1C0")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Gated() {
		t.Error("gate command did not apply")
	}
}

func TestSessionErrorsInBand(t *testing.T) {
	ctl := newCtl(t)
	s := NewSession(ctl)
	for _, bad := range []string{
		"cpm P9C9 1",
		"cpm P0C0 -1",
		"cpm",
		"mode P0C0 turbo",
		"pstate P0C0 nine",
		"gate P0C0 maybe",
		"putscom xyz 1",
		"putscom 0x80000000",
		"getscom",
		"launch-missiles",
		"chip P7",
		"freq",
	} {
		if resp := s.Exec(bad); !strings.HasPrefix(resp, "err ") {
			t.Errorf("command %q → %q, want err", bad, resp)
		}
	}
	if resp := s.Exec(""); !strings.HasPrefix(resp, "err") {
		t.Errorf("empty command → %q", resp)
	}
}

func TestSessionRawScom(t *testing.T) {
	ctl := newCtl(t)
	s := NewSession(ctl)
	addr := MakeCoreAddr(0, 0, regCPMReduction)
	if resp := s.Exec(sprintAddr("putscom", addr) + " 4"); resp != "ok" {
		t.Fatalf("putscom → %q", resp)
	}
	if resp := s.Exec(sprintAddr("getscom", addr)); resp != "ok 0x4" {
		t.Errorf("getscom → %q", resp)
	}
}

func sprintAddr(cmd string, a Addr) string {
	return cmd + " " + "0x" + strings.ToLower(strings.TrimPrefix(formatHex(uint32(a)), "0X"))
}

func formatHex(v uint32) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 8)
	for i := 7; i >= 0; i-- {
		out[i] = digits[v&0xF]
		v >>= 4
	}
	return string(out)
}

// TestExecNeverPanics: arbitrary operator input is rejected in-band,
// never by panicking — property-checked over random byte strings and
// over near-miss command shapes.
func TestExecNeverPanics(t *testing.T) {
	ctl := newCtl(t)
	s := NewSession(ctl)
	prop := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		resp := s.Exec(string(raw))
		return strings.HasPrefix(resp, "ok") || strings.HasPrefix(resp, "err")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	nearMisses := []string{
		"cpm P0C3 999999999999999999999",
		"putscom 0xffffffff 0xffffffffffffffff",
		"getscom 0x0",
		"pstate P0C0 -1",
		"cpm \x00\x01",
		"mode",
		"chip",
		"freq P0C0 extra-arg",
	}
	for _, cmd := range nearMisses {
		resp := s.Exec(cmd)
		if !strings.HasPrefix(resp, "err") && !strings.HasPrefix(resp, "ok") {
			t.Errorf("command %q → unframed response %q", cmd, resp)
		}
	}
}
