package fsp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/obs"
)

// startSession serves a session over a pipe and hands back the client
// end. The server end closes once the session ends, so a reader sees
// EOF after quit.
func startSession(t *testing.T) net.Conn {
	t.Helper()
	cliSide, srvSide := net.Pipe()
	sess := NewSession(NewController(chip.NewReference()))
	go func() {
		//lint:ignore errdrop test server: the client closing the pipe ends the session with an expected error
		sess.Serve(srvSide, srvSide)
		//lint:ignore errdrop test teardown of an in-memory pipe
		srvSide.Close()
	}()
	t.Cleanup(func() {
		//lint:ignore errdrop test teardown of an in-memory pipe
		cliSide.Close()
	})
	return cliSide
}

// lineFault is what a lossyLink does to one reply line.
type lineFault int

const (
	pass   lineFault = iota
	drop             // the line never arrives
	garble           // the framing bytes are overwritten with '#'
)

// lossyLink sits between a client and its transport and faults the
// reply lines the client reads: fault picks each line's fate by its
// index in the reply stream (0 = the first line). Writes go straight
// to the transport. Over a Loopback a dropped line is an empty read.
type lossyLink struct {
	rw      io.ReadWriter
	br      *bufio.Reader
	fault   func(i int) lineFault
	n       int
	pending []byte
}

func newLossyLink(rw io.ReadWriter, fault func(i int) lineFault) *lossyLink {
	return &lossyLink{rw: rw, br: bufio.NewReader(rw), fault: fault}
}

func (l *lossyLink) Write(p []byte) (int, error) { return l.rw.Write(p) }

func (l *lossyLink) Read(p []byte) (int, error) {
	for len(l.pending) == 0 {
		line, err := l.br.ReadBytes('\n')
		if err != nil {
			return 0, err
		}
		l.n++
		switch l.fault(l.n - 1) {
		case drop:
			continue
		case garble:
			for i := 0; i < 2 && line[i] != '\n'; i++ {
				line[i] = '#'
			}
		}
		l.pending = line
	}
	n := copy(p, l.pending)
	l.pending = l.pending[n:]
	return n, nil
}

// lossyConn is a lossyLink over a connection. Deadlines and Close pass
// through, so a dropped line surfaces as a read timeout, as on a hung
// link.
type lossyConn struct {
	net.Conn
	l *lossyLink
}

func (c lossyConn) Read(p []byte) (int, error) { return c.l.Read(p) }

// lossyPipe serves a session over a pipe and returns a client end that
// faults its reply lines.
func lossyPipe(t *testing.T, fault func(i int) lineFault) net.Conn {
	conn := startSession(t)
	return lossyConn{Conn: conn, l: newLossyLink(conn, fault)}
}

// lossyLoopback is a Loopback to a reference machine's session whose
// reply lines fault.
func lossyLoopback(fault func(i int) lineFault) *lossyLink {
	return newLossyLink(NewLoopback(NewSession(NewController(chip.NewReference()))), fault)
}

// faultsAt faults the reply lines the map names and passes the rest.
func faultsAt(m map[int]lineFault) func(int) lineFault {
	return func(i int) lineFault { return m[i] }
}

// clientCounts are the resilience counters a client keeps in the
// registry passed as ClientOptions.Obs.
type clientCounts struct{ retries, resyncs, discarded int64 }

func countsOf(reg *obs.Registry) clientCounts {
	return clientCounts{
		retries:   reg.Counter("fsp_client_retries_total").Value(),
		resyncs:   reg.Counter("fsp_client_resyncs_total").Value(),
		discarded: reg.Counter("fsp_client_discarded_total").Value(),
	}
}

func TestParseResponse(t *testing.T) {
	cases := []struct {
		line    string
		ok      bool
		isErr   bool
		payload string
	}{
		{"ok", true, false, ""},
		{"ok 42", true, false, "42"},
		{"err", true, true, ""},
		{"err no such core", true, true, "no such core"},
		{"##garbage", false, false, ""},
		{"", false, false, ""},
		{"okay", false, false, ""},
	}
	for _, c := range cases {
		resp, wellFormed := parseResponse([]byte(c.line))
		if wellFormed != c.ok || resp.isErr != c.isErr || string(resp.payload) != c.payload {
			t.Errorf("parseResponse(%q) = %+v, %v; want payload %q isErr %v ok %v",
				c.line, resp, wellFormed, c.payload, c.isErr, c.ok)
		}
	}
}

func TestClientCommands(t *testing.T) {
	cli := NewClient(startSession(t), ClientOptions{Timeout: time.Second})
	if out, err := cli.Exec("ping live-1"); err != nil || out != "pong live-1" {
		t.Fatalf("ping = %q, %v; want the token echoed", out, err)
	}
	cores, err := cli.Exec("cores")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(strings.Fields(cores)); n != 16 {
		t.Errorf("reference server lists %d cores, want 16", n)
	}
	if err := cli.SetCPM("P0C0", 5); err != nil {
		t.Fatal(err)
	}
	red, err := cli.CPM("P0C0")
	if err != nil {
		t.Fatal(err)
	}
	if red != 5 {
		t.Errorf("CPM read back %d, want 5", red)
	}
	if err := cli.SetMode("P0C0", "atm"); err != nil {
		t.Fatal(err)
	}
	freq, err := cli.Exec("freq P0C0")
	if err != nil {
		t.Fatal(err)
	}
	f, ok := strings.CutSuffix(freq, " MHz")
	if v, err := strconv.ParseFloat(f, 64); !ok || err != nil || v <= 0 {
		t.Errorf("freq payload %q, want a positive MHz value", freq)
	}
	if out, err := cli.Exec("quit"); err != nil || out != "bye" {
		t.Fatalf("quit = %q, %v; want bye", out, err)
	}
}

// TestClientNonTransientNoRetry: an in-band protocol rejection must come
// back immediately as *CmdError without burning the retry budget.
func TestClientNonTransientNoRetry(t *testing.T) {
	reg := obs.NewRegistry()
	cli := NewClient(startSession(t), ClientOptions{Timeout: time.Second, Obs: reg})
	_, err := cli.Exec("cpm NOPE")
	var cerr *CmdError
	if !errors.As(err, &cerr) {
		t.Fatalf("got %v, want *CmdError", err)
	}
	if c := countsOf(reg); c.retries != 0 {
		t.Errorf("in-band error consumed %d retries", c.retries)
	}
}

// TestClientRetriesTransient: a transient transport fault, a reply
// garbled in transit, is retried until a clean reply lands. Replies 0
// and 2 answer the command's first two attempts; reply 1 is the
// re-sync's pong.
func TestClientRetriesTransient(t *testing.T) {
	reg := obs.NewRegistry()
	link := lossyPipe(t, faultsAt(map[int]lineFault{0: garble, 2: garble}))
	cli := NewClient(link, ClientOptions{Retries: 3, Timeout: time.Second, Obs: reg})
	if _, err := cli.Exec("freq P0C0"); err != nil {
		t.Fatalf("transient faults not absorbed: %v", err)
	}
	if c := countsOf(reg); c.retries != 2 {
		t.Errorf("absorbed %d retries, want 2: %+v", c.retries, c)
	}
}

// everyAttemptGarbled garbles the reply to every attempt of a command
// and lets each re-sync's pong through: the command's replies and the
// pongs alternate.
func everyAttemptGarbled(i int) lineFault {
	if i%2 == 0 {
		return garble
	}
	return pass
}

// TestClientExhaustion: a fault on every attempt spends the budget and
// surfaces ErrExhausted wrapping the last cause.
func TestClientExhaustion(t *testing.T) {
	link := lossyPipe(t, everyAttemptGarbled)
	cli := NewClient(link, ClientOptions{Retries: 2, Timeout: time.Second})
	_, err := cli.Exec("freq P0C0")
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if !strings.Contains(err.Error(), "garbled response") {
		t.Errorf("exhaustion does not wrap the garbled reply: %v", err)
	}
}

// TestClientBackoffSimulated: a retry re-syncs and resends at once,
// so spending the whole budget takes no wall time. Four attempts over
// the in-memory loopback take well under a millisecond; the bound
// leaves room for a loaded host.
func TestClientBackoffSimulated(t *testing.T) {
	start := time.Now()
	cli := NewClient(lossyLoopback(everyAttemptGarbled), ClientOptions{Retries: 3})
	if _, err := cli.Exec("freq P0C0"); err == nil {
		t.Fatal("want exhaustion")
	}
	if elapsed := time.Since(start); elapsed > 175*time.Millisecond {
		t.Errorf("retries slept: %v elapsed", elapsed)
	}
}

// TestClientResyncAfterGarble: a garbled response triggers the retry
// path's ping/pong re-sync, after which framing is realigned and
// further commands run clean.
func TestClientResyncAfterGarble(t *testing.T) {
	reg := obs.NewRegistry()
	link := lossyPipe(t, faultsAt(map[int]lineFault{0: garble}))
	cli := NewClient(link, ClientOptions{Retries: 3, Timeout: time.Second, Obs: reg})
	// Attempt 0 reads the garbage; the retry re-syncs and lands the
	// command.
	if _, err := cli.Exec("ping live-1"); err != nil {
		t.Fatalf("client never realigned: %v", err)
	}
	c := countsOf(reg)
	if c.resyncs == 0 || c.discarded == 0 {
		t.Errorf("garbled line cost no resync/discard: %+v", c)
	}
	// Framing is aligned again: further commands run clean.
	if _, err := cli.Exec("cores"); err != nil {
		t.Fatalf("post-resync cores: %v", err)
	}
	if c2 := countsOf(reg); c2.retries != c.retries {
		t.Errorf("post-resync command needed retries: %+v", c2)
	}
}

// TestClientNegativeRetries: a negative Retries sends each command once
// and retries nothing, the way a negative Timeout disables the
// deadline.
func TestClientNegativeRetries(t *testing.T) {
	reg := obs.NewRegistry()
	cli := NewClient(lossyLoopback(faultsAt(map[int]lineFault{1: garble})), ClientOptions{Retries: -1, Obs: reg})
	if out, err := cli.Exec("ping x"); err != nil || out != "pong x" {
		t.Fatalf("ping = %q, %v; want the token echoed", out, err)
	}
	_, err := cli.Exec("ping y")
	if !errors.Is(err, ErrExhausted) || !strings.Contains(err.Error(), "garbled response") {
		t.Fatalf("got %v, want ErrExhausted wrapping the garbled reply", err)
	}
	if !strings.Contains(err.Error(), "after 1 attempts") {
		t.Errorf("error %q does not report the one attempt", err)
	}
	if c := countsOf(reg); c.retries != 0 || c.resyncs != 0 {
		t.Errorf("negative Retries retried: %+v", c)
	}
}

// TestClientSurvivesFaultyTransport is the operator-plane resilience
// proof: a client with retries and re-sync completes a command sequence
// over a transport that drops and garbles lines.
func TestClientSurvivesFaultyTransport(t *testing.T) {
	reg := obs.NewRegistry()
	link := lossyPipe(t, func(i int) lineFault {
		switch {
		case i%11 == 4:
			return drop
		case i%7 == 2:
			return garble
		}
		return pass
	})
	cli := NewClient(link, ClientOptions{
		Retries: 8,
		Timeout: 50 * time.Millisecond,
		Obs:     reg,
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
	c := countsOf(reg)
	if c.retries == 0 || c.resyncs == 0 {
		t.Errorf("dropped and garbled lines cost no retries or resyncs: %+v", c)
	}
	t.Logf("counts: %+v", c)
}

// TestClientCleanTransportNoRetries: over a clean link the resilience
// machinery must be pure overhead-free passthrough.
func TestClientCleanTransportNoRetries(t *testing.T) {
	reg := obs.NewRegistry()
	cli := NewClient(startSession(t), ClientOptions{Timeout: time.Second, Obs: reg})
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
	if c := countsOf(reg); c != (clientCounts{}) {
		t.Errorf("clean link accumulated fault counts: %+v", c)
	}
}

// TestClientExhaustsBudget: a transport that garbles everything must
// surface ErrExhausted, not hang or panic.
func TestClientExhaustsBudget(t *testing.T) {
	link := lossyLoopback(func(int) lineFault { return garble })
	cli := NewClient(link, ClientOptions{Retries: 2})
	_, err := cli.Exec("cores")
	if err == nil {
		t.Fatal("command succeeded over a fully-garbled link")
	}
	if !errors.Is(err, ErrExhausted) || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("error %v does not report exhaustion", err)
	}
}

// TestTelemetryFaultRetried: telemetry replies garbled in transit are
// absorbed by the client's retry loop. Every third reply is garbled,
// which hits the first attempt of every other command.
func TestTelemetryFaultRetried(t *testing.T) {
	reg := obs.NewRegistry()
	link := lossyPipe(t, func(i int) lineFault {
		if i%3 == 0 {
			return garble
		}
		return pass
	})
	cli := NewClient(link, ClientOptions{Retries: 12, Timeout: time.Second, Obs: reg})
	for i := 0; i < 10; i++ {
		if _, err := cli.Exec("freq P0C0"); err != nil {
			t.Fatalf("freq read %d not absorbed: %v", i, err)
		}
	}
	if c := countsOf(reg); c.retries == 0 {
		t.Error("garbled telemetry replies never triggered a retry")
	}
}

// TestClientMarginsUnderGarbledTransport: the margins verb — the
// sentinel's telemetry path — must survive a faulty link like every
// other command. Dropped and garbled response lines are absorbed by
// the client's retry/re-sync envelope and the values delivered are
// identical to a clean link's.
func TestClientMarginsUnderGarbledTransport(t *testing.T) {
	clean := NewClient(NewLoopback(NewSession(NewController(chip.NewReference()))), ClientOptions{})
	want, err := clean.Margins()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("clean margins read returned no cores")
	}

	read := func() ([][]CoreMargin, []byte) {
		reg := obs.NewRegistry()
		link := lossyLoopback(func(i int) lineFault {
			switch {
			case i%5 == 1:
				return drop
			case i%4 == 2:
				return garble
			}
			return pass
		})
		cli := NewClient(link, ClientOptions{Retries: 8, Obs: reg})
		var out [][]CoreMargin
		for i := 0; i < 10; i++ {
			ms, err := cli.Margins()
			if err != nil {
				t.Fatalf("margins read %d under faults: %v", i, err)
			}
			// Margins reuses its result slice on the next call.
			out = append(out, slices.Clone(ms))
		}
		if c := countsOf(reg); c.retries == 0 && c.resyncs == 0 {
			t.Fatalf("the link faulted nothing (%+v) — the test is vacuous", c)
		}
		return out, reg.SnapshotJSON()
	}

	got, snap := read()
	for i, ms := range got {
		if !slices.Equal(ms, want) {
			t.Fatalf("read %d = %+v, want %+v (faults leaked into values)", i, ms, want)
		}
	}

	// The same fault schedule replays the same retries and values.
	got2, snap2 := read()
	if !bytes.Equal(snap, snap2) {
		t.Fatalf("same faults, different client metrics:\n%s\n%s", snap, snap2)
	}
	for i := range got {
		if !slices.Equal(got[i], got2[i]) {
			t.Fatalf("same faults, different values at read %d", i)
		}
	}
}

// TestFaultyLinkEndToEndScript drives the raw line protocol over a pipe
// with no client: a script's replies arrive in order, and the session
// hangs up after quit.
func TestFaultyLinkEndToEndScript(t *testing.T) {
	conn := startSession(t)
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
