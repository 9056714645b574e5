package fsp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// The network face of the service processor: on real hardware the FSP
// is reached over the service network; here ServeListener accepts any
// net.Listener (TCP in cmd/atmfsp, net.Pipe in tests) and runs one
// operator session per connection against a shared controller.
//
// The Controller itself is not concurrency-safe (it drives one machine),
// so the server serializes command execution with a mutex — matching the
// real firmware, which processes SCOM operations one at a time.

// DefaultIdleTimeout is the per-connection inactivity bound: a client
// that sends nothing for this long is disconnected, so a hung operator
// script cannot pin a session goroutine (and, through it, shutdown)
// forever.
const DefaultIdleTimeout = 2 * time.Minute

// Server accepts operator connections and serves sessions.
type Server struct {
	ctl *Controller

	// IdleTimeout bounds the silence between commands on one
	// connection; reads past it fail and the session ends. Zero
	// disables the timeout. Set before Serve.
	IdleTimeout time.Duration

	mu sync.Mutex // serializes command execution across connections

	// reg, when non-nil, is forwarded to every per-connection session
	// (per-verb counters, the "stats" verb) and counts accepted
	// connections. Set via Observe before Serve.
	reg   *obs.Registry
	connc *obs.Counter

	// clock, when non-nil, is forwarded to every session for per-verb
	// latency histograms. Set via SetClock before Serve.
	clock func() int64

	// The session gate (see guard.go): maxSessions, set by Guard,
	// bounds the sessions served at once (0 = unbounded). gateMu
	// guards active, the sessions held, and sheds, the connections
	// refused; depthG and shedC export them when a registry is
	// attached.
	maxSessions int
	gateMu      sync.Mutex
	active      int
	sheds       int64
	depthG      *obs.Gauge
	shedC       *obs.Counter

	wg      sync.WaitGroup
	stateMu sync.Mutex // guards closing/listener/conns against Serve↔Close races
	closed  bool
	closing chan struct{}
	conns   map[net.Conn]struct{}

	listener net.Listener
}

// NewServer wraps a controller for network serving.
func NewServer(ctl *Controller) *Server {
	return &Server{
		ctl:         ctl,
		IdleTimeout: DefaultIdleTimeout,
		closing:     make(chan struct{}),
		conns:       map[net.Conn]struct{}{},
	}
}

// Observe attaches a metrics registry: accepted connections are
// counted, and every session serves per-verb counters plus the
// read-only "stats" verb over it. Call before Serve; nil disables.
func (s *Server) Observe(r *obs.Registry) {
	s.reg = r
	s.connc = r.Counter("fsp_server_connections_total")
}

// SetClock supplies the timestamp source every session times commands
// with (see Session.SetClock). cmd/atmfsp wires wall microseconds. Call
// before Serve; nil (the default) disables latency measurement.
func (s *Server) SetClock(fn func() int64) { s.clock = fn }

// Serve accepts connections on l until Close is called or the listener
// fails. It blocks; run it in a goroutine when the caller needs to
// continue.
func (s *Server) Serve(l net.Listener) error {
	s.stateMu.Lock()
	if s.closed {
		// Close won the race: never accept.
		s.stateMu.Unlock()
		return l.Close()
	}
	s.listener = l
	s.stateMu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closing:
				return nil // orderly shutdown
			default:
				return err
			}
		}
		s.stateMu.Lock()
		if s.closed {
			// Close raced the accept: refuse the connection promptly.
			s.stateMu.Unlock()
			//lint:ignore errdrop shutdown refusal: the peer observes the close, there is no session to report into
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.stateMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.stateMu.Lock()
				delete(s.conns, conn)
				s.stateMu.Unlock()
				//lint:ignore errdrop per-connection teardown: the peer is gone and there is no one to report a close failure to
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// serveConn runs one session over a connection, serializing each command
// against the shared controller.
func (s *Server) serveConn(conn net.Conn) {
	s.connc.Inc()
	// Admission control: the gate bounds concurrently served sessions.
	// A shed connection gets one in-band "err busy" line and is closed
	// by the caller's deferred Close, so overload never hangs a peer and
	// never leaks a session goroutine.
	if !s.admit() {
		s.shed(conn)
		return
	}
	defer s.release()
	sess := s.localSession()
	locked := &lockedSession{sess: sess, mu: &s.mu}
	var rw net.Conn = conn
	if s.IdleTimeout > 0 {
		rw = &idleConn{Conn: conn, timeout: s.IdleTimeout}
	}
	//lint:ignore errdrop a serve error is a client that hung up or idled out mid-session — normal connection lifecycle, not a server fault
	_ = locked.serve(rw)
}

// localSession builds the session serveConn serves over a connection,
// wired to the shared registry, the server clock and the server-wide
// health view. serveConn holds the server mutex around each command.
func (s *Server) localSession() *Session {
	sess := NewSession(s.ctl)
	if s.reg != nil {
		sess.Observe(s.reg)
	}
	sess.clock = s.clock
	sess.health = s.healthLine
	return sess
}

// shed refuses a connection in-band (the shed itself is counted by
// admit).
func (s *Server) shed(conn net.Conn) {
	//lint:ignore errdrop shed notification is best-effort: the refused peer may already be gone, and there is no session to report into
	fmt.Fprintln(conn, "err busy")
}

// idleConn re-arms a read deadline before every read, so the effective
// deadline is inactivity, not total session length.
type idleConn struct {
	net.Conn
	timeout time.Duration
}

func (c *idleConn) Read(p []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// lockedSession wraps a session so each command executes under the
// server's mutex while the line I/O stays per-connection.
type lockedSession struct {
	sess *Session
	mu   *sync.Mutex
}

func (ls *lockedSession) serve(conn net.Conn) error {
	return ls.sess.serveWith(conn, conn, func(line string) string {
		ls.mu.Lock()
		defer ls.mu.Unlock()
		return ls.sess.Exec(line)
	})
}

// Close stops accepting, disconnects every connected session promptly,
// and waits for the session goroutines to finish. It is idempotent and
// safe to call before, during, or after Serve.
func (s *Server) Close() error {
	s.stateMu.Lock()
	var err error
	if !s.closed {
		s.closed = true
		close(s.closing)
		if s.listener != nil {
			err = s.listener.Close()
		}
		// Force in-flight sessions off the wire: without this, Close
		// would block until every connected client idled out or quit.
		for conn := range s.conns {
			//lint:ignore errdrop forced shutdown of a live session: the session goroutine observes the closed conn and exits
			conn.Close()
		}
	}
	s.stateMu.Unlock()
	s.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}
