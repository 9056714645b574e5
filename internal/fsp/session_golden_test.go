package fsp

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chip"
	"repro/internal/obs"
)

// -update regenerates the session golden transcript under testdata/.
var update = flag.Bool("update", false, "rewrite golden fsp session transcripts")

// goldenScript is the scripted operator session the golden pins, in two
// segments: the first runs with no metrics registry attached, the
// second after Session.Observe attaches one, so "stats" answers both
// ways. It covers each verb's ok reply and its in-band errors, usage
// errors, an unknown verb, blank and comment lines, and the margins
// read at reduction 0 and at every core's maximum reduction, where
// every margin is negative.
func goldenScript(m *chip.Machine) [2][]string {
	plain := []string{
		"",
		"   ",
		"# a comment line",
		"ping tok-1",
		"ping",
		"cores",
		"stats",
		"stats extra",
		"health",
		"health extra",
		"launch-missiles now",
		"getscom",
		"getscom zzz",
		"getscom 0x80000000",
		"getscom 0x80000008",
		"getscom 0x800000ff",
		"getscom 0x80070008",
		"getscom 0x800f0f00",
		"getscom 0x80000f01",
		"putscom 0x80000000",
		"putscom zzz 1",
		"putscom 0x80000000 xyz",
		"putscom 0x80000000 3",
		"getscom 0x80000000",
		"putscom 0x80000000 0x0",
		"putscom 0x80000008 1",
		"putscom 0x80000f00 1",
		"putscom 0x80000001 7",
		"cpm",
		"cpm P0C0 1 2",
		"cpm P0C0",
		"cpm P9C9",
		"cpm P0C0 -1",
		"cpm P0C0 x",
		"cpm P0C0 99",
		"cpm P0C3 6",
		"cpm P0C3",
		"freq P0C3",
		"cpm P0C3 0",
		"mode",
		"mode P0C7 turbo",
		"mode P9C9 atm",
		"mode P0C7 static",
		"mode P0C7 atm",
		"pstate P0C7",
		"pstate P0C7 nine",
		"pstate P0C7 1234",
		"pstate P0C7 3700",
		"gate P1C0",
		"gate P1C0 maybe",
		"gate P1C0 on",
		"freq P1C0",
		"gate P1C0 off",
		"freq",
		"freq P9C9",
		"freq P0C0",
		"margins extra",
		"margins",
		"chip",
		"chip P7",
		"chip P0",
		"chip P1",
	}
	for _, c := range m.AllCores() {
		plain = append(plain, fmt.Sprintf("cpm %s %d", c.Profile.Label, c.Profile.MaxReduction()))
	}
	plain = append(plain, "margins", "freq P0C0", "chip P0")
	observed := []string{
		"ping tok-2",
		"stats",
		"stats extra",
		"margins",
		"no-such-verb",
		"cpm P0C0 0",
		"margins",
		"health",
	}
	return [2][]string{plain, observed}
}

// transportSkips reports whether a transport drops the line before it
// reaches Exec: Serve and the Loopback ignore blank and comment lines.
func transportSkips(line string) bool {
	t := strings.TrimSpace(line)
	return t == "" || strings.HasPrefix(t, "#")
}

// goldenTranscript replays the script on a fresh reference machine,
// feeding each segment to run, and renders "> command" / reply pairs.
// run returns one reply per line it was given.
func goldenTranscript(t *testing.T, run func(s *Session, lines []string) []string, skips func(string) bool) string {
	t.Helper()
	ctl := NewController(chip.NewReference())
	sess := NewSession(ctl)
	var b strings.Builder
	for seg, lines := range goldenScript(ctl.m) {
		if seg == 1 {
			sess.Observe(obs.NewRegistry())
			b.WriteString("-- registry attached --\n")
		}
		var sent []string
		for _, l := range lines {
			if !skips(l) {
				sent = append(sent, l)
			}
		}
		replies := run(sess, sent)
		if len(replies) != len(sent) {
			t.Fatalf("segment %d: %d replies to %d lines: %q", seg, len(replies), len(sent), replies)
		}
		for i, l := range sent {
			b.WriteString("> " + strconv.Quote(l) + "\n" + replies[i] + "\n")
		}
	}
	return b.String()
}

// TestSessionGolden pins every verb's reply bytes, ok and in-band
// error, as the operator protocol answers them through Session.Exec,
// through a Client over a Loopback and through Serve. Regenerate
// intentionally with:
//
//	go test ./internal/fsp -run TestSessionGolden -update
func TestSessionGolden(t *testing.T) {
	never := func(string) bool { return false }
	exec := goldenTranscript(t, func(s *Session, lines []string) []string {
		out := make([]string, len(lines))
		for i, l := range lines {
			out[i] = s.Exec(l)
		}
		return out
	}, never)
	loopback := goldenTranscript(t, func(s *Session, lines []string) []string {
		reg := obs.NewRegistry()
		cli := NewClient(NewLoopback(s), ClientOptions{Obs: reg})
		out := make([]string, len(lines))
		for i, l := range lines {
			payload, err := cli.Exec(l)
			var cerr *CmdError
			switch {
			case errors.As(err, &cerr):
				out[i] = "err " + cerr.Msg
			case err != nil:
				t.Fatalf("loopback %q: transport error %v", l, err)
			case payload == "":
				out[i] = "ok"
			default:
				out[i] = "ok " + payload
			}
		}
		if c := countsOf(reg); c.retries != 0 || c.discarded != 0 {
			t.Fatalf("loopback client retried on a clean link: %+v", c)
		}
		return out
	}, transportSkips)
	serve := goldenTranscript(t, func(s *Session, lines []string) []string {
		var out strings.Builder
		if err := s.Serve(strings.NewReader(strings.Join(lines, "\n")+"\n"), &out); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	}, transportSkips)

	got := "== Session.Exec ==\n" + exec + "== Client over Loopback ==\n" + loopback + "== Serve ==\n" + serve
	path := filepath.Join("testdata", "session.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden transcript (run with -update): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("session replies drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
