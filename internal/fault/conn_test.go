package fault

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/fsp"
)

// TestWrapReadWriterDeterministic: the same (profile, seed) applied to
// the same byte stream survives, drops and garbles the same lines.
func TestWrapReadWriterDeterministic(t *testing.T) {
	input := ""
	for i := 0; i < 200; i++ {
		input += "ok line\n"
	}
	read := func() string {
		in := New(Profile{DropProb: 0.2, GarbleProb: 0.2}, 5)
		rw := in.WrapReadWriter(struct {
			io.Reader
			io.Writer
		}{strings.NewReader(input), io.Discard})
		out, err := io.ReadAll(rw)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	a, b := read(), read()
	if a != b {
		t.Error("identically-seeded wrapped streams differ")
	}
	if a == input {
		t.Error("profile with drop+garble 0.4 left 200 lines untouched")
	}
	drops := 200 - strings.Count(a, "\n")
	garbles := strings.Count(a, "##")
	if drops == 0 || garbles == 0 {
		t.Errorf("want both drops and garbles; got %d drops, %d garbles", drops, garbles)
	}
}

func TestWrapNoFaultsIsIdentity(t *testing.T) {
	in := New(Profile{}, 5)
	var buf bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{strings.NewReader("x\n"), &buf}
	if got := in.WrapReadWriter(rw); got != io.ReadWriter(rw) {
		t.Error("empty profile did not return the transport unchanged")
	}
}

// startFaultyServer runs an FSP session over one end of a pipe and
// returns the client's (possibly fault-wrapped) end.
func startFaultyServer(t *testing.T, inj *Injector) net.Conn {
	t.Helper()
	cliSide, srvSide := net.Pipe()
	sess := fsp.NewSession(fsp.NewController(chip.NewReference()))
	go func() {
		sess.Serve(srvSide, srvSide)
		srvSide.Close()
	}()
	t.Cleanup(func() {
		cliSide.Close()
	})
	if inj == nil {
		return cliSide
	}
	return inj.WrapConn(cliSide)
}

// TestClientSurvivesFaultyTransport is the operator-plane resilience
// proof: a client with retries and re-sync completes a command sequence
// over a transport that drops and garbles lines.
func TestClientSurvivesFaultyTransport(t *testing.T) {
	p, err := ParseProfile("drop=0.15,garble=0.1")
	if err != nil {
		t.Fatal(err)
	}
	conn := startFaultyServer(t, New(p, 3))
	cli := fsp.NewClient(conn, fsp.ClientOptions{
		Retries: 8,
		Timeout: 50 * time.Millisecond,
	})
	for i := 0; i < 20; i++ {
		token := fmt.Sprintf("live-%d", i)
		if out, err := cli.Exec("ping " + token); err != nil || out != "pong "+token {
			t.Fatalf("ping %d failed through the fault envelope: %q, %v", i, out, err)
		}
	}
	red, err := cli.CPM("P0C0")
	if err != nil {
		t.Fatalf("cpm read: %v", err)
	}
	if red != 0 {
		t.Errorf("fresh machine reports reduction %d, want 0", red)
	}
	if err := cli.SetCPM("P0C0", 3); err != nil {
		t.Fatalf("cpm write: %v", err)
	}
	red, err = cli.CPM("P0C0")
	if err != nil {
		t.Fatal(err)
	}
	if red != 3 {
		t.Errorf("read back reduction %d, want 3", red)
	}
	st := cli.Stats()
	if st.Retries == 0 && st.Resyncs == 0 {
		t.Error("a 25% fault rate cost zero retries and resyncs — faults not exercised")
	}
	t.Logf("stats: %+v", st)
}

// TestClientCleanTransportNoRetries: over a clean link the resilience
// machinery must be pure overhead-free passthrough.
func TestClientCleanTransportNoRetries(t *testing.T) {
	conn := startFaultyServer(t, nil)
	cli := fsp.NewClient(conn, fsp.ClientOptions{Timeout: time.Second})
	if out, err := cli.Exec("ping live-1"); err != nil || out != "pong live-1" {
		t.Fatalf("ping = %q, %v; want the token echoed", out, err)
	}
	cores, err := cli.Exec("cores")
	if err != nil {
		t.Fatal(err)
	}
	if cores == "" {
		t.Error("no cores listed")
	}
	if st := cli.Stats(); st.Retries != 0 || st.Resyncs != 0 || st.Discarded != 0 {
		t.Errorf("clean link accumulated fault stats: %+v", st)
	}
}

// TestClientExhaustsBudget: a transport that garbles everything must
// surface fsp.ErrExhausted, not hang or panic.
func TestClientExhaustsBudget(t *testing.T) {
	p := Profile{GarbleProb: 1}
	conn := startFaultyServer(t, New(p, 3))
	cli := fsp.NewClient(conn, fsp.ClientOptions{
		Retries: 2,
		Timeout: 50 * time.Millisecond,
	})
	_, err := cli.Exec("cores")
	if err == nil {
		t.Fatal("command succeeded over a fully-garbled link")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("error %v does not report exhaustion", err)
	}
}

// TestTelemetryFaultRetried: injected transient telemetry errors are
// reported in-band, marked transient, and absorbed by the client's
// retry loop.
func TestTelemetryFaultRetried(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	ctl := fsp.NewController(chip.NewReference())
	inj := New(Profile{TelemetryErrProb: 0.4}, 9)
	inj.ArmController(ctl)
	sess := fsp.NewSession(ctl)
	go func() {
		sess.Serve(srvSide, srvSide)
	}()
	t.Cleanup(func() {
		cliSide.Close()
	})
	cli := fsp.NewClient(cliSide, fsp.ClientOptions{
		Retries: 12,
		Timeout: time.Second,
	})
	sawRetry := false
	for i := 0; i < 10; i++ {
		if _, err := cli.Exec("freq P0C0"); err != nil {
			t.Fatalf("freq read %d not absorbed: %v", i, err)
		}
		if cli.Stats().Retries > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("40% telemetry fault rate never triggered a retry")
	}
}

// TestFaultyLinkEndToEndScript drives the raw line protocol (no client)
// through a reader that tolerates fault markers, proving the session
// itself never breaks formation under transport garbage.
func TestFaultyLinkEndToEndScript(t *testing.T) {
	conn := startFaultyServer(t, nil)
	if _, err := io.WriteString(conn, "cores\nquit\n"); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(conn)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "ok ") || lines[1] != "ok bye" {
		t.Errorf("script got %q", lines)
	}
}
