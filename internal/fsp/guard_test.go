package fsp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/obs"
)

// startGuardedServer is startServer with a session gate of maxSessions
// and a registry.
func startGuardedServer(t *testing.T, maxSessions int) (*Server, string, *obs.Registry) {
	t.Helper()
	ctl := NewController(chip.NewReference())
	srv := NewServer(ctl)
	reg := obs.NewRegistry()
	srv.Observe(reg)
	srv.Guard(maxSessions)
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
	srv, addr, reg := startGuardedServer(t, 2)

	// Two sessions pin the gate.
	held := []net.Conn{holdSession(t, addr), holdSession(t, addr)}

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

	// The gate's series counts the five flood sheds, and any recovery
	// probe it shed, once each.
	if got, want := reg.Counter("guard_gate_shed_total", "name", "fsp_sessions").Value(), srv.gate.Sheds(); got < 5 || got != want {
		t.Errorf("guard_gate_shed_total = %d, want the gate's %d and at least 5", got, want)
	}
}

// holdSession dials addr and proves the session live, and so holding a
// gate slot, before returning the connection.
func holdSession(t *testing.T, addr string) net.Conn {
	t.Helper()
	hold, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errdrop a write failure surfaces as the read assertion below failing
	fmt.Fprintln(hold, "ping hold")
	if line, err := bufio.NewReader(hold).ReadString('\n'); err != nil || strings.TrimSpace(line) != "ok pong hold" {
		t.Fatalf("hold session not live: %q, %v", line, err)
	}
	return hold
}

// TestFloodNoGoroutineLeak sheds a burst of connections and verifies
// the goroutine count returns to baseline — overload must not leak
// session goroutines.
func TestFloodNoGoroutineLeak(t *testing.T) {
	_, addr, _ := startGuardedServer(t, 1)
	hold := holdSession(t, addr)
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

// TestHealthVerbFields checks the server-wide health document.
func TestHealthVerbFields(t *testing.T) {
	_, addr, _ := startGuardedServer(t, 4)
	out, err := dialScript(addr, "health")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !strings.HasPrefix(out[0], "ok {") {
		t.Fatalf("health answered %v", out)
	}
	doc := strings.TrimPrefix(out[0], "ok ")
	for _, field := range []string{
		`"active_sessions":1`, `"max_sessions":4`, `"session_sheds":0`,
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
	if out != `ok {"active_sessions":0,"max_sessions":0,"session_sheds":0}` {
		t.Fatalf("standalone health = %q", out)
	}
}

// TestClientGetsBusyOverTCP: a default client on a connection the
// session gate sheds gets the "err busy" line from its first Exec as a
// *CmdError. Resending on that connection would only write into the
// socket the server closed after the line.
func TestClientGetsBusyOverTCP(t *testing.T) {
	_, addr, _ := startGuardedServer(t, 1)
	hold := holdSession(t, addr)
	//lint:ignore errdrop test-side teardown
	defer hold.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errdrop test-side teardown of a shed connection
	defer conn.Close()
	_, err = NewClient(conn, ClientOptions{}).Exec("cores")
	var cerr *CmdError
	if !errors.As(err, &cerr) || cerr.Msg != "busy" {
		t.Fatalf("shed client got %v, want the in-band busy line as a *CmdError", err)
	}
}
