package fsp

import (
	"errors"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chip"
)

// startSession serves a session over a pipe and hands back the client
// end.
func startSession(t *testing.T) (net.Conn, *Controller) {
	t.Helper()
	ctl := NewController(chip.NewReference())
	cliSide, srvSide := net.Pipe()
	sess := NewSession(ctl)
	go func() {
		//lint:ignore errdrop test server: the client closing the pipe ends the session with an expected error
		sess.Serve(srvSide, srvSide)
	}()
	t.Cleanup(func() {
		//lint:ignore errdrop test teardown of an in-memory pipe
		cliSide.Close()
	})
	return cliSide, ctl
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
	conn, _ := startSession(t)
	cli := NewClient(conn, ClientOptions{Timeout: time.Second})
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
	conn, _ := startSession(t)
	cli := NewClient(conn, ClientOptions{Timeout: time.Second})
	_, err := cli.Exec("cpm NOPE")
	var cerr *CmdError
	if !errors.As(err, &cerr) {
		t.Fatalf("got %v, want *CmdError", err)
	}
	if cerr.Transient() {
		t.Errorf("rejection %q classified transient", cerr.Msg)
	}
	if st := cli.Stats(); st.Retries != 0 {
		t.Errorf("non-transient error consumed %d retries", st.Retries)
	}
}

// TestClientRetriesTransient: a controller read fault marked transient
// is retried until a clean read lands.
func TestClientRetriesTransient(t *testing.T) {
	conn, ctl := startSession(t)
	fails := 2
	ctl.SetReadFault(func(a Addr) error {
		if fails > 0 {
			fails--
			return errors.New("transient telemetry upset (injected)")
		}
		return nil
	})
	cli := NewClient(conn, ClientOptions{Retries: 3, Timeout: time.Second})
	if _, err := cli.Exec("freq P0C0"); err != nil {
		t.Fatalf("transient faults not absorbed: %v", err)
	}
	if st := cli.Stats(); st.Retries != 2 {
		t.Errorf("absorbed %d retries, want 2: %+v", st.Retries, st)
	}
}

// TestClientExhaustion: a permanently transient fault spends the budget
// and surfaces ErrExhausted wrapping the cause.
func TestClientExhaustion(t *testing.T) {
	conn, ctl := startSession(t)
	ctl.SetReadFault(func(a Addr) error {
		return errors.New("transient telemetry upset (injected, permanent)")
	})
	cli := NewClient(conn, ClientOptions{Retries: 2, Timeout: time.Second})
	_, err := cli.Exec("freq P0C0")
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	var cerr *CmdError
	if !errors.As(err, &cerr) || !cerr.Transient() {
		t.Errorf("exhaustion does not wrap the transient cause: %v", err)
	}
}

// TestClientBackoffSimulated: the default Sleep is simulated — the
// deterministic exponential schedule accumulates in Stats without
// slowing the test down.
func TestClientBackoffSimulated(t *testing.T) {
	conn, ctl := startSession(t)
	ctl.SetReadFault(func(a Addr) error {
		return errors.New("transient telemetry upset (injected, permanent)")
	})
	cli := NewClient(conn, ClientOptions{Retries: 3, Timeout: time.Second})
	start := time.Now()
	if _, err := cli.Exec("freq P0C0"); err == nil {
		t.Fatal("want exhaustion")
	}
	elapsed := time.Since(start)
	want := 25*time.Millisecond + 50*time.Millisecond + 100*time.Millisecond
	if st := cli.Stats(); st.Backoff != want {
		t.Errorf("accumulated backoff %v, want %v", st.Backoff, want)
	}
	if elapsed > want {
		t.Errorf("simulated backoff actually slept: %v elapsed", elapsed)
	}
}

// garbleFirstRead corrupts the framing bytes of the first read, as if
// one response line got mangled on the wire.
type garbleFirstRead struct {
	net.Conn
	done bool
}

func (g *garbleFirstRead) Read(p []byte) (int, error) {
	n, err := g.Conn.Read(p)
	if !g.done && n > 0 {
		for i := 0; i < n && i < 2; i++ {
			p[i] = '#'
		}
		g.done = true
	}
	return n, err
}

// TestClientResyncAfterGarble: a garbled response triggers the retry
// path's ping/pong re-sync, after which framing is realigned and
// further commands run clean.
func TestClientResyncAfterGarble(t *testing.T) {
	conn, _ := startSession(t)
	cli := NewClient(&garbleFirstRead{Conn: conn}, ClientOptions{Retries: 3, Timeout: time.Second})
	// Attempt 0 reads the garbage; the retry re-syncs and lands the
	// command.
	if _, err := cli.Exec("ping live-1"); err != nil {
		t.Fatalf("client never realigned: %v", err)
	}
	st := cli.Stats()
	if st.Resyncs == 0 || st.Discarded == 0 {
		t.Errorf("garbled line cost no resync/discard: %+v", st)
	}
	// Framing is aligned again: further commands run clean.
	if _, err := cli.Exec("cores"); err != nil {
		t.Fatalf("post-resync cores: %v", err)
	}
	if st2 := cli.Stats(); st2.Retries != st.Retries {
		t.Errorf("post-resync command needed retries: %+v", st2)
	}
}
