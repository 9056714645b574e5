package fsp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// Client is the operator-plane counterpart of Session: it drives the
// line protocol over any transport and survives the transport being
// imperfect. Every command gets a per-command I/O timeout (when the
// transport supports deadlines), a bounded retry budget with
// deterministic backoff, and response re-synchronization: after a
// dropped or garbled response line the client exchanges a ping token
// and discards stale lines until the echo comes back, so one lost byte
// cannot skew every subsequent response.
//
// Backoff time is simulated by default — with no Sleep hook the client
// does not pause — so retry schedules are deterministic and tests are
// instant; wire Sleep to a wall-clock sleep that honors cancel for a
// real test-floor link.
//
// In-band "err ..." responses are protocol results, not transport
// faults: they are returned as *CmdError without retrying, except for
// responses a server marks retryable ("err transient ..." or
// "err busy ..."), which are retried like a transport fault.
type Client struct {
	rw  io.ReadWriter
	br  *bufio.Reader
	opt ClientOptions
	seq int
	ob  clientObs

	// wbuf is the outgoing command line, long holds a reply line too
	// long for br's buffer, and margins is the slice Margins returns;
	// all three are reused across commands.
	wbuf    []byte
	long    []byte
	margins []CoreMargin
}

// clientObs is the client's pre-resolved metric handle set. The zero
// value (all nil) is the disabled plane; every use is a nil-safe no-op.
type clientObs struct {
	commands  *obs.Counter
	retries   *obs.Counter
	resyncs   *obs.Counter
	discarded *obs.Counter
	exhausted *obs.Counter
	attempts  *obs.Histogram // attempts consumed per command (1 = clean)
}

func newClientObs(r *obs.Registry) clientObs {
	if r == nil {
		return clientObs{}
	}
	return clientObs{
		commands:  r.Counter("fsp_client_commands_total"),
		retries:   r.Counter("fsp_client_retries_total"),
		resyncs:   r.Counter("fsp_client_resyncs_total"),
		discarded: r.Counter("fsp_client_discarded_total"),
		exhausted: r.Counter("fsp_client_exhausted_total"),
		// The command "latency" of a simulated link is how many attempts
		// it took, not wall time — wall time would break determinism.
		attempts: r.Histogram("fsp_client_attempts_per_command", []float64{1, 2, 3, 4, 8}),
	}
}

// ClientOptions tunes the client's resilience envelope.
type ClientOptions struct {
	// Retries is the number of additional attempts after the first
	// failed one. Default 3; negative means none, one attempt per
	// command.
	Retries int
	// Timeout bounds each read and write when the transport supports
	// deadlines (net.Conn, net.Pipe). Default 2s; negative disables.
	Timeout time.Duration
	// Sleep consumes the backoff pauses. The default does not sleep
	// (simulated time). A real implementation must honor cancel and
	// return early when it fires.
	Sleep func(d time.Duration, cancel <-chan struct{})
	// Cancel, when non-nil, aborts the retry loop: a close of the
	// channel makes Exec return ErrCanceled at the next backoff (a
	// shutting-down caller is never stuck sleeping out a backoff
	// schedule). It does not interrupt an in-flight read — the
	// per-command Timeout already bounds those.
	Cancel <-chan struct{}
	// Obs, when non-nil, counts what the resilience machinery absorbed
	// (commands, retries, resyncs, discarded lines, exhausted budgets)
	// as fsp_client_* metrics, plus a histogram of attempts consumed
	// per command. Nil disables at ~zero cost.
	Obs *obs.Registry
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Retries == 0 {
		o.Retries = 3
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Timeout == 0 {
		o.Timeout = 2 * time.Second
	}
	return o
}

// backoff maps attempt number (1, 2, ...) to the pause before that
// retry: deterministic binary exponential, 25ms · 2^(attempt−1), capped
// at 1s. No jitter — reproducibility outranks thundering-herd etiquette
// on a one-operator link.
func backoff(attempt int) time.Duration {
	d := 25 * time.Millisecond << (attempt - 1)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// resyncWindow is how many stale lines a re-sync may discard while
// hunting for its pong before the attempt is abandoned.
const resyncWindow = 32

// CmdError is an in-band protocol error: the server executed (or
// rejected) the command and said "err ...".
type CmdError struct {
	Cmd string
	Msg string
}

func (e *CmdError) Error() string { return fmt.Sprintf("fsp: %q: %s", e.Cmd, e.Msg) }

// Transient reports whether the server marked the failure retryable
// ("err transient ...") rather than rejecting the command.
func (e *CmdError) Transient() bool { return strings.HasPrefix(e.Msg, "transient") }

// Busy reports whether the server shed the command under overload
// ("err busy ..." — admission control or an open session breaker).
// Busy errors are retried with backoff like transport faults: by the
// time the schedule has backed off, the server has usually recovered
// headroom or walked its breaker to half-open.
func (e *CmdError) Busy() bool { return strings.HasPrefix(e.Msg, "busy") }

// ErrExhausted wraps the last failure after the retry budget is spent.
var ErrExhausted = errors.New("retry budget exhausted")

// ErrCanceled reports that the caller's Cancel channel fired during
// the retry loop. It is distinct from ErrExhausted: the command was
// abandoned by choice, not defeated by the transport.
var ErrCanceled = errors.New("canceled")

// NewClient wraps a transport. The transport is used from one goroutine
// at a time.
func NewClient(rw io.ReadWriter, opts ClientOptions) *Client {
	o := opts.withDefaults()
	return &Client{rw: rw, br: bufio.NewReaderSize(rw, 4096), opt: o, ob: newClientObs(o.Obs)}
}

// deadlined is the optional transport surface the per-command timeout
// uses; net.Conn and net.Pipe both provide it.
type deadlined interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

func (c *Client) armRead() {
	if d, ok := c.rw.(deadlined); ok && c.opt.Timeout > 0 {
		//lint:ignore errdrop,detflow best-effort deadline arming: a transport that refuses deadlines degrades to blocking reads, which the caller accepted by providing it; wall time bounds how long a read may block, never what it returns, and the in-memory loopback the simulation uses never hits the deadline
		d.SetReadDeadline(time.Now().Add(c.opt.Timeout))
	}
}

func (c *Client) armWrite() {
	if d, ok := c.rw.(deadlined); ok && c.opt.Timeout > 0 {
		//lint:ignore errdrop,detflow best-effort deadline arming: a transport that refuses deadlines degrades to blocking writes, which the caller accepted by providing it; wall time bounds how long a write may block, never what it returns, and the in-memory loopback the simulation uses never hits the deadline
		d.SetWriteDeadline(time.Now().Add(c.opt.Timeout))
	}
}

// writeLine sends one command line.
func (c *Client) writeLine(line string) error {
	c.armWrite()
	c.wbuf = append(append(c.wbuf[:0], line...), '\n')
	_, err := c.rw.Write(c.wbuf)
	return err
}

// readLine reads one response line under the per-command deadline,
// with its line ending trimmed. The line is a view of the client's read
// buffer, valid until the next read.
func (c *Client) readLine() ([]byte, error) {
	c.armRead()
	line, err := c.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		c.long = append(c.long[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = c.br.ReadSlice('\n')
			c.long = append(c.long, line...)
		}
		line = c.long
	}
	if err != nil {
		return nil, err
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, nil
}

// response is one parsed protocol reply; payload is a view of the line.
type response struct {
	isErr   bool
	payload []byte
}

// parseResponse classifies a line; ok=false marks a garbled line that
// belongs to no well-formed reply.
func parseResponse(line []byte) (response, bool) {
	switch {
	case string(line) == "ok":
		return response{}, true
	case bytes.HasPrefix(line, []byte("ok ")):
		return response{payload: line[len("ok "):]}, true
	case bytes.HasPrefix(line, []byte("err ")):
		return response{isErr: true, payload: line[len("err "):]}, true
	case string(line) == "err":
		return response{isErr: true}, true
	default:
		return response{}, false
	}
}

// resync drains the transport of stale response lines: it sends a ping
// with a fresh token and discards everything until the matching pong
// arrives. Called after any attempt whose response was lost or garbled,
// so the next command starts aligned.
func (c *Client) resync() error {
	c.seq++
	token := fmt.Sprintf("sync-%d", c.seq)
	c.ob.resyncs.Inc()
	if err := c.writeLine("ping " + token); err != nil {
		return err
	}
	want := "ok pong " + token
	for i := 0; i < resyncWindow; i++ {
		line, err := c.readLine()
		if err != nil {
			return err
		}
		if string(line) == want {
			return nil
		}
		c.ob.discarded.Inc()
	}
	return fmt.Errorf("fsp: resync token %s not echoed within %d lines", token, resyncWindow)
}

// Exec runs one command with the full resilience envelope and returns
// the "ok" payload. A non-transient in-band error returns *CmdError
// immediately; transport faults and transient errors are retried with
// backoff until the budget is spent, then reported wrapping
// ErrExhausted.
func (c *Client) Exec(cmd string) (string, error) {
	payload, err := c.exec(cmd)
	if err != nil {
		return "", err
	}
	return string(payload), nil
}

// exec is Exec's retry loop. The payload it returns is a view of the
// client's read buffer, valid until the next command.
func (c *Client) exec(cmd string) ([]byte, error) {
	c.ob.commands.Inc()
	var lastErr error
	for attempt := 0; attempt <= c.opt.Retries; attempt++ {
		if attempt > 0 {
			c.ob.retries.Inc()
			if err := c.pause(attempt); err != nil {
				return nil, fmt.Errorf("fsp: %q: %w", cmd, err)
			}
			if err := c.resync(); err != nil {
				lastErr = err
				continue
			}
		}
		if err := c.writeLine(cmd); err != nil {
			lastErr = err
			continue
		}
		line, err := c.readLine()
		if err != nil {
			lastErr = err
			continue
		}
		resp, wellFormed := parseResponse(line)
		if !wellFormed {
			c.ob.discarded.Inc()
			lastErr = fmt.Errorf("fsp: garbled response %q", line)
			continue
		}
		if resp.isErr {
			cerr := &CmdError{Cmd: cmd, Msg: string(resp.payload)}
			if cerr.Transient() || cerr.Busy() {
				lastErr = cerr
				continue
			}
			c.ob.attempts.Observe(float64(attempt + 1))
			return nil, cerr
		}
		c.ob.attempts.Observe(float64(attempt + 1))
		return resp.payload, nil
	}
	c.ob.exhausted.Inc()
	c.ob.attempts.Observe(float64(c.opt.Retries + 1))
	return nil, fmt.Errorf("fsp: %q failed after %d attempts: %w: %w",
		cmd, c.opt.Retries+1, ErrExhausted, lastErr)
}

// pause consumes one backoff step, honoring cancellation both before
// and after the sleep so a shutting-down caller escapes promptly even
// when the Sleep hook ignores the cancel channel.
func (c *Client) pause(attempt int) error {
	select {
	case <-c.opt.Cancel:
		return ErrCanceled
	default:
	}
	if c.opt.Sleep != nil {
		c.opt.Sleep(backoff(attempt), c.opt.Cancel)
	}
	select {
	case <-c.opt.Cancel:
		return ErrCanceled
	default:
	}
	return nil
}

// CPM reads a core's current inserted-delay reduction.
func (c *Client) CPM(core string) (int, error) {
	out, err := c.Exec("cpm " + core)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.Atoi(strings.TrimSpace(out))
	if perr != nil {
		return 0, fmt.Errorf("fsp: bad cpm payload %q", out)
	}
	return v, nil
}

// SetCPM programs a core's inserted-delay reduction.
func (c *Client) SetCPM(core string, reduction int) error {
	_, err := c.Exec(fmt.Sprintf("cpm %s %d", core, reduction))
	return err
}

// SetMode switches a core between "static" and "atm" clocking.
func (c *Client) SetMode(core, mode string) error {
	_, err := c.Exec(fmt.Sprintf("mode %s %s", core, mode))
	return err
}

// CoreMargin is one core's CPM slack margin as reported by the
// "margins" verb: headroom to the worst-case workload envelope in
// per-trial sigmas at the core's current reduction.
type CoreMargin struct {
	Core  string
	Sigma float64
}

// Margins reads every core's CPM slack margin in one round trip, in
// the server's register address order. The read rides the full
// resilience envelope: transient and busy replies and garbled
// transport lines are retried with re-sync like any other command.
//
// The returned slice is owned by the client and valid until the next
// call, which reuses it: the sentinel polls every epoch, and a poll
// whose labels match the previous one's reuses their strings too, so a
// steady-state poll allocates no result. A poll that fails leaves the
// previous result as it was.
func (c *Client) Margins() ([]CoreMargin, error) {
	payload, err := c.exec("margins")
	if err != nil {
		return nil, err
	}
	ms, err := parseMargins(c.margins, payload)
	if err != nil {
		return nil, err
	}
	c.margins = ms
	return ms, nil
}

// parseMargins parses a "margins" payload, label=value pairs separated
// by single spaces (runs of spaces are skipped). The pairs are appended
// after dst's elements and moved to the front of its backing array only
// once the whole payload has parsed, so a payload that does not parse
// leaves dst as it was. A label whose bytes equal the label dst held at
// the same index keeps that string. A value in the server's [-]d.ddd
// form goes through parseMilli, any other through strconv.ParseFloat;
// both give the same double. A NaN or infinite value is rejected: the
// server never writes one, and NaN fails every comparison the sentinel
// makes, which would switch it off for that core.
func parseMargins(dst []CoreMargin, payload []byte) ([]CoreMargin, error) {
	n := len(dst)
	// Room after dst for this payload's pairs and, once they move to
	// the front, for the next poll's, so a steady poll keeps the array.
	if fields := bytes.Count(payload, []byte{' '}) + 1; cap(dst)-n < fields {
		dst = slices.Grow(dst, 2*fields)
	}
	ms := dst
	for rest := payload; len(rest) > 0; {
		f := rest
		if sp := bytes.IndexByte(rest, ' '); sp >= 0 {
			f, rest = rest[:sp], rest[sp+1:]
		} else {
			rest = nil
		}
		if len(f) == 0 {
			continue
		}
		eq := bytes.IndexByte(f, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("fsp: bad margins payload %q", payload)
		}
		name, val := f[:eq], f[eq+1:]
		v, ok := parseMilli(val)
		if !ok {
			var perr error
			if v, perr = strconv.ParseFloat(string(val), 64); perr != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("fsp: bad margins payload %q", payload)
			}
		}
		var label string
		if i := len(ms) - n; i < n && dst[i].Core == string(name) {
			label = dst[i].Core
		} else {
			label = string(name)
		}
		ms = append(ms, CoreMargin{Core: label, Sigma: v})
	}
	return append(ms[:0], ms[n:]...), nil
}

// parseMilli parses the [-]d.ddd form appendMilli writes and reports
// whether b had that form with milli-units m ≤ 2^53. Then float64(m) is
// exact and float64(m)/1000 is the correctly rounded quotient, which is
// the double ParseFloat returns for the same decimal. The sign applies
// last, so "-0.000" is −0, as ParseFloat reads it. ParseFloat reaches
// the same quotient through a general scan: with it in place of this
// path a poll's parse takes about twice as long, and the
// lifetime-sentinel benchmark runs 12% fewer units/s (EXPERIMENTS.md).
func parseMilli(b []byte) (float64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	// At most 15 integer digits keep m below 10^18, inside int64.
	ip := len(b) - len(".ddd")
	if ip < 1 || ip > 15 || b[ip] != '.' {
		return 0, false
	}
	var m int64
	for i, ch := range b {
		if i == ip {
			continue
		}
		if ch < '0' || ch > '9' {
			return 0, false
		}
		m = m*10 + int64(ch-'0')
	}
	if m > 1<<53 {
		return 0, false
	}
	v := float64(m) / 1000
	if neg {
		v = -v
	}
	return v, true
}
