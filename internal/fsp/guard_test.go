package fsp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/obs"
)

// startGuardedServer is startServer with a guard plane and registry.
func startGuardedServer(t *testing.T, g GuardOptions) (*Server, string, *obs.Registry) {
	t.Helper()
	ctl := NewController(chip.NewReference())
	srv := NewServer(ctl)
	reg := obs.NewRegistry()
	srv.Observe(reg)
	srv.Guard(g)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, l.Addr().String(), reg
}

// TestSessionGateSheds floods the server past MaxSessions and demands
// every surplus connection get the in-band busy line, with the gate
// recovering as sessions end.
func TestSessionGateSheds(t *testing.T) {
	_, addr, reg := startGuardedServer(t, GuardOptions{MaxSessions: 2})

	// Two sessions pin the gate.
	var held []net.Conn
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, conn)
		// Prove the session is live (and therefore holds a gate slot)
		// before flooding.
		//lint:ignore errdrop a write failure surfaces as the read assertion below failing
		fmt.Fprintln(conn, "ping hold")
		line, err := bufio.NewReader(conn).ReadString('\n')
		if err != nil || strings.TrimSpace(line) != "ok pong hold" {
			t.Fatalf("held session %d not live: %q, %v", i, line, err)
		}
	}

	// The flood: every connection over the limit is shed in-band.
	for i := 0; i < 5; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		line, rerr := bufio.NewReader(conn).ReadString('\n')
		//lint:ignore errdrop test-side teardown of a shed connection
		conn.Close()
		if rerr != nil || strings.TrimSpace(line) != "err busy" {
			t.Fatalf("flood conn %d: got %q, %v; want in-band err busy", i, line, rerr)
		}
	}

	// Release the gate; a new session must be admitted again.
	for _, conn := range held {
		//lint:ignore errdrop best-effort goodbye; the close below frees the gate slot either way
		fmt.Fprintln(conn, "quit")
		//lint:ignore errdrop test-side teardown
		conn.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A shed probe fails its writes once the server hangs up: not
		// recovered yet.
		out, err := dialScript(addr, "ping again")
		if err == nil && len(out) > 0 && out[0] == "ok pong again" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gate never recovered after sessions ended: %v, %v", out, err)
		}
	}

	snap := string(reg.SnapshotJSON())
	if !strings.Contains(snap, "fsp_server_shed_total") || !strings.Contains(snap, "guard_gate_shed_total") {
		t.Errorf("shed metrics missing from snapshot:\n%s", snap)
	}
}

// TestFloodNoGoroutineLeak sheds a burst of connections and verifies
// the goroutine count returns to baseline — overload must not leak
// session goroutines.
func TestFloodNoGoroutineLeak(t *testing.T) {
	_, addr, _ := startGuardedServer(t, GuardOptions{MaxSessions: 1})

	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errdrop a write failure surfaces as the read assertion below failing
	fmt.Fprintln(hold, "ping hold")
	if line, err := bufio.NewReader(hold).ReadString('\n'); err != nil || strings.TrimSpace(line) != "ok pong hold" {
		t.Fatalf("hold session not live: %q, %v", line, err)
	}
	baseline := runtime.NumGoroutine()

	for i := 0; i < 40; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		//lint:ignore errdrop the shed reply is best-effort and the test only cares about goroutine accounting
		bufio.NewReader(conn).ReadString('\n')
		//lint:ignore errdrop test-side teardown of a shed connection
		conn.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked under flood: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	//lint:ignore errdrop test-side teardown
	hold.Close()
}

// TestSessionBreakerTripAndRecover drives one session through garbage
// → open → half-open → closed, entirely on the deterministic event
// clock, and checks the health verb reports every stage. The open
// window is the breaker default of 8 ticks, each shed command one.
func TestSessionBreakerTripAndRecover(t *testing.T) {
	run := func() ([]string, string) {
		_, addr, reg := startGuardedServer(t, GuardOptions{GarbageThreshold: 3})
		script := []string{
			"health",      // closed
			"bogus one",   // garbage 1
			"bogus two",   // garbage 2
			"bogus three", // garbage 3 → trips open
			"cores",       // elapsed 1 < 8: shed
			"health",      // diagnostics answer while open (no tick)
		}
		for elapsed := 2; elapsed < 8; elapsed++ {
			script = append(script, "cores") // shed
		}
		script = append(script,
			"cores",  // elapsed 8: half-open probe, executes
			"health", // probe succeeded → closed again
		)
		out, err := dialScript(addr, script...)
		if err != nil {
			t.Fatal(err)
		}
		return out, string(reg.SnapshotJSON())
	}
	out, snap := run()
	if len(out) != 15 { // 14 responses + ok bye
		t.Fatalf("got %d response lines: %v", len(out), out)
	}
	if !strings.Contains(out[0], `"breaker":"closed"`) {
		t.Errorf("initial health = %q, want closed breaker", out[0])
	}
	for i := 1; i <= 3; i++ {
		if !strings.HasPrefix(out[i], "err unknown command") {
			t.Errorf("garbage line %d answered %q", i, out[i])
		}
	}
	if !strings.Contains(out[5], `"breaker":"open"`) {
		t.Errorf("health while open = %q", out[5])
	}
	for _, i := range []int{4, 6, 7, 8, 9, 10, 11} {
		if out[i] != "err busy breaker open" {
			t.Errorf("shed command %d answered %q, want err busy breaker open", i, out[i])
		}
	}
	if !strings.HasPrefix(out[12], "ok ") {
		t.Errorf("half-open probe answered %q, want the cores listing", out[12])
	}
	if !strings.Contains(out[13], `"breaker":"closed"`) || !strings.Contains(out[13], `"breaker_rejected":7`) {
		t.Errorf("health after recovery = %q, want a closed breaker that shed 7", out[13])
	}

	// Determinism: the same script produces byte-identical responses
	// and metrics on a fresh server.
	out2, snap2 := run()
	if strings.Join(out, "\n") != strings.Join(out2, "\n") {
		t.Fatalf("breaker responses not deterministic:\n%v\nvs\n%v", out, out2)
	}
	if snap != snap2 {
		t.Fatalf("guard metrics not deterministic:\n%s\nvs\n%s", snap, snap2)
	}
}

// TestHealthVerbFields checks the server-wide health document.
func TestHealthVerbFields(t *testing.T) {
	_, addr, _ := startGuardedServer(t, GuardOptions{MaxSessions: 4, GarbageThreshold: 5})
	out, err := dialScript(addr, "health")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !strings.HasPrefix(out[0], "ok {") {
		t.Fatalf("health answered %v", out)
	}
	doc := strings.TrimPrefix(out[0], "ok ")
	for _, field := range []string{
		`"breaker":"closed"`, `"breaker_rejected":0`, `"active_sessions":1`,
		`"max_sessions":4`, `"session_sheds":0`,
	} {
		if !strings.Contains(doc, field) {
			t.Errorf("health doc missing %s: %s", field, doc)
		}
	}
}

// TestStandaloneSessionHealth: the verb answers (with the session-only
// view) even without a network server or guard plane.
func TestStandaloneSessionHealth(t *testing.T) {
	sess := NewSession(NewController(chip.NewReference()))
	out := sess.Exec("health")
	if out != `ok {"breaker":"closed","breaker_rejected":0,"active_sessions":0,"max_sessions":0,"session_sheds":0}` {
		t.Fatalf("standalone health = %q", out)
	}
}

// scriptedTransport answers each written line with the next canned
// reply, regardless of content — a server whose responses the test
// fully controls.
type scriptedTransport struct {
	replies []string
	writes  []string
}

func newScriptedTransport(replies ...string) *scriptedTransport {
	return &scriptedTransport{replies: replies}
}

func (s *scriptedTransport) Write(p []byte) (int, error) {
	s.writes = append(s.writes, string(p))
	return len(p), nil
}

func (s *scriptedTransport) Read(p []byte) (int, error) {
	if len(s.replies) == 0 {
		return 0, io.EOF
	}
	line := s.replies[0] + "\n"
	s.replies = s.replies[1:]
	return copy(p, line), nil
}

// TestClientRetriesBusy proves the client treats the shed reply as
// retryable and succeeds once the server has headroom again.
func TestClientRetriesBusy(t *testing.T) {
	script := newScriptedTransport(
		"err busy",
		"ok pong sync-1",
		"ok pong probe-ok",
	)
	reg := obs.NewRegistry()
	c := NewClient(script, ClientOptions{Retries: 2, Obs: reg})
	out, err := c.Exec("ping probe-ok")
	if err != nil {
		t.Fatalf("Exec = %v", err)
	}
	if out != "pong probe-ok" {
		t.Fatalf("payload = %q", out)
	}
	if n := countsOf(reg).retries; n != 1 {
		t.Fatalf("retries = %d, want 1", n)
	}
}

// TestClientBusyExhaustion: a server that never recovers yields
// ErrExhausted wrapping the busy CmdError.
func TestClientBusyExhaustion(t *testing.T) {
	script := newScriptedTransport(
		"err busy", "ok pong sync-1",
		"err busy breaker open", "ok pong sync-2",
		"err busy",
	)
	c := NewClient(script, ClientOptions{Retries: 2})
	_, err := c.Exec("cores")
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	var cerr *CmdError
	if !errors.As(err, &cerr) || !cerr.Busy() {
		t.Fatalf("err = %v, want to wrap a busy CmdError", err)
	}
}
