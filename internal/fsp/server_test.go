package fsp

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/chip"
)

// dialScript connects, sends the script lines and a closing quit, and
// returns the response lines once the server has closed the connection
// and every write has finished. err is the dial error or the first
// write error: a session the server sheds or ends early makes one.
func dialScript(addr string, lines ...string) (out []string, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdrop test teardown; the session already ended and the writer finished
	defer conn.Close()
	sent := make(chan error, 1)
	go func() {
		for _, l := range lines {
			if _, err := fmt.Fprintln(conn, l); err != nil {
				sent <- fmt.Errorf("send %q: %w", l, err)
				return
			}
		}
		if _, err := fmt.Fprintln(conn, "quit"); err != nil {
			sent <- fmt.Errorf("send quit: %w", err)
			return
		}
		sent <- nil
	}()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		out = append(out, sc.Text())
	}
	return out, <-sent
}

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	ctl := NewController(chip.NewReference())
	srv := NewServer(ctl)
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
	return srv, l.Addr().String()
}

func TestServerSingleSession(t *testing.T) {
	_, addr := startServer(t)
	resp, err := dialScript(addr, "cpm P0C3 6", "cpm P0C3", "freq P0C3")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 4 { // 3 commands + quit ack
		t.Fatalf("got %d responses: %v", len(resp), resp)
	}
	if resp[0] != "ok" || resp[1] != "ok 6" {
		t.Errorf("responses: %v", resp)
	}
	if !strings.Contains(resp[2], "MHz") {
		t.Errorf("freq response %q", resp[2])
	}
	if resp[3] != "ok bye" {
		t.Errorf("quit ack %q", resp[3])
	}
}

// TestServerConcurrentClients hammers the shared controller from many
// connections; the mutex must keep every response well-formed and the
// final machine state consistent.
func TestServerConcurrentClients(t *testing.T) {
	srv, addr := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan string, clients*4)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			core := fmt.Sprintf("P1C%d", c%8)
			resp, err := dialScript(addr,
				fmt.Sprintf("cpm %s 1", core),
				fmt.Sprintf("freq %s", core),
				"chip P1",
			)
			if err != nil {
				errs <- fmt.Sprintf("client %d: %v", c, err)
				return
			}
			if len(resp) != 4 {
				errs <- fmt.Sprintf("client %d: %d responses", c, len(resp))
				return
			}
			for i, r := range resp {
				if !strings.HasPrefix(r, "ok") {
					errs <- fmt.Sprintf("client %d line %d: %q", c, i, r)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Every core the clients touched ends at reduction 1.
	for c := 0; c < 8; c++ {
		core, err := srv.ctl.m.Core(fmt.Sprintf("P1C%d", c))
		if err != nil {
			t.Fatal(err)
		}
		if core.Reduction() != 1 {
			t.Errorf("%s at reduction %d after concurrent clients", core.Profile.Label, core.Reduction())
		}
	}
}

func TestServerCloseIsIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
