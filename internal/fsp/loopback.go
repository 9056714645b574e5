package fsp

import (
	"bytes"
	"io"
	"strings"
)

// Loopback is a synchronous in-process transport that connects a
// Client directly to a Session with no goroutines, pipes, or wall
// time: each Write parses complete command lines and executes them
// immediately, appending the response lines to an internal buffer the
// next Read drains. Because execution happens inline on the caller's
// goroutine, a client driven over a Loopback is fully deterministic —
// the closed-loop consumers (the lifetime margin sentinel, tests) get
// operator-plane semantics without any scheduling. A test can wrap a
// Loopback in a reader that drops or garbles response lines to make the
// link lossy while the session underneath stays healthy.
type Loopback struct {
	s *Session
	// pending accumulates written bytes until a full line arrives.
	pending []byte
	// out holds response lines, of which Read has drained the first
	// read bytes. The session appends each reply straight into it.
	out  []byte
	read int
	// line is the last command line Write executed. A line with the
	// same bytes reuses the string, so a steady poll allocates none.
	line string
}

// NewLoopback wraps a session in a synchronous transport.
func NewLoopback(s *Session) *Loopback { return &Loopback{s: s} }

// Write feeds command bytes in. Every complete line is executed
// synchronously through the session and its response buffered for
// Read. Partial trailing lines are held until their newline arrives.
func (l *Loopback) Write(p []byte) (int, error) {
	l.pending = append(l.pending, p...)
	// Drop what Read already drained, so the buffer does not grow.
	l.out = l.out[:copy(l.out, l.out[l.read:])]
	l.read = 0
	done := 0
	for {
		nl := bytes.IndexByte(l.pending[done:], '\n')
		if nl < 0 {
			break
		}
		if raw := bytes.TrimSpace(l.pending[done : done+nl]); string(raw) != l.line {
			l.line = string(raw)
		}
		line := l.line
		done += nl + 1
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			// Blank lines and comments are ignored, matching Serve.
		case line == "quit":
			// "quit" never reaches Exec in the served protocol; answer it
			// here the way the serve loop does.
			l.out = append(l.out, "ok bye\n"...)
		default:
			l.out = append(l.s.exec(l.out, line), '\n')
		}
	}
	l.pending = l.pending[:copy(l.pending, l.pending[done:])]
	return len(p), nil
}

// Read drains buffered response lines. With nothing buffered it
// reports io.EOF, which fails the command a client is reading for; the
// next Write replenishes the buffer.
func (l *Loopback) Read(p []byte) (int, error) {
	if l.read == len(l.out) {
		return 0, io.EOF
	}
	n := copy(p, l.out[l.read:])
	l.read += n
	return n, nil
}
