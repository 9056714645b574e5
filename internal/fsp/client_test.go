package fsp

import (
	"bufio"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chip"
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

// lossyLink sits between a client and a Loopback and faults the reply
// lines the client reads: faults names a line's fate by its index in
// the reply stream (0 = the first line), and every other line passes.
// Writes go straight to the Loopback. A dropped line is an empty read.
type lossyLink struct {
	rw      io.ReadWriter
	br      *bufio.Reader
	faults  map[int]lineFault
	n       int
	pending []byte
}

// lossyLoopback is a Loopback to a reference machine's session whose
// reply lines fault as faults names.
func lossyLoopback(faults map[int]lineFault) *lossyLink {
	lb := NewLoopback(NewSession(NewController(chip.NewReference())))
	return &lossyLink{rw: lb, br: bufio.NewReader(lb), faults: faults}
}

func (l *lossyLink) Write(p []byte) (int, error) { return l.rw.Write(p) }

func (l *lossyLink) Read(p []byte) (int, error) {
	for len(l.pending) == 0 {
		line, err := l.br.ReadBytes('\n')
		if err != nil {
			return 0, err
		}
		l.n++
		switch l.faults[l.n-1] {
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
	cli := NewClient(startSession(t), ClientOptions{})
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

// TestClientNonTransientNoRetry: an in-band protocol rejection comes
// back as *CmdError naming the command, and the client does not resend
// it: the next command on the link reads its own reply.
func TestClientNonTransientNoRetry(t *testing.T) {
	cli := NewClient(startSession(t), ClientOptions{})
	_, err := cli.Exec("cpm NOPE")
	var cerr *CmdError
	if !errors.As(err, &cerr) || cerr.Cmd != "cpm NOPE" {
		t.Fatalf("got %v, want *CmdError for %q", err, "cpm NOPE")
	}
	if out, err := cli.Exec("ping after"); err != nil || out != "pong after" {
		t.Fatalf("ping after the rejection = %q, %v; want its own reply", out, err)
	}
}

// TestClientGarbledReplyFailsOnce: a reply garbled in transit fails its
// command at once, with an error naming the command and the line, and
// the client sends nothing more for it: the next command on the link
// reads its own reply.
func TestClientGarbledReplyFailsOnce(t *testing.T) {
	cli := NewClient(lossyLoopback(map[int]lineFault{0: garble}), ClientOptions{})
	_, err := cli.Exec("ping a")
	var cerr *CmdError
	if err == nil || errors.As(err, &cerr) {
		t.Fatalf("garbled reply: got %v, want a transport error", err)
	}
	if msg := err.Error(); !strings.Contains(msg, `"ping a"`) || !strings.Contains(msg, `"## pong a"`) {
		t.Errorf("error %q does not name the command and the garbled line", msg)
	}
	if out, err := cli.Exec("ping b"); err != nil || out != "pong b" {
		t.Fatalf("next command = %q, %v; want its own reply", out, err)
	}
}

// TestClientDroppedReply: a reply that never arrives over a Loopback
// fails its command with an error naming it and wrapping the
// Loopback's io.EOF, without waiting, and the next command on the link
// reads its own reply.
func TestClientDroppedReply(t *testing.T) {
	cli := NewClient(lossyLoopback(map[int]lineFault{0: drop}), ClientOptions{})
	_, err := cli.Exec("ping a")
	if !errors.Is(err, io.EOF) || !strings.Contains(err.Error(), `"ping a"`) {
		t.Fatalf("dropped reply: got %v, want an error naming the command and wrapping io.EOF", err)
	}
	if out, err := cli.Exec("ping b"); err != nil || out != "pong b" {
		t.Fatalf("next command = %q, %v; want its own reply", out, err)
	}
}

// TestClientFailedWrite: a write the transport refuses fails the
// command with an error naming it and wrapping the transport's.
func TestClientFailedWrite(t *testing.T) {
	cliSide, srvSide := net.Pipe()
	if err := srvSide.Close(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//lint:ignore errdrop test teardown of an in-memory pipe
		cliSide.Close()
	})
	_, err := NewClient(cliSide, ClientOptions{}).Exec("cores")
	if !errors.Is(err, io.ErrClosedPipe) || !strings.Contains(err.Error(), `"cores"`) {
		t.Fatalf("write to a closed pipe: got %v, want an error naming the command and wrapping io.ErrClosedPipe", err)
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
