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
)

// Client is the operator-plane counterpart of Session: it drives the
// line protocol over any transport, writing one command line and
// reading one reply line per command. A failed write or read, or a
// reply that is not a protocol line, fails that command with an error
// naming it; the client does not resend. In-band "err ..." replies are
// protocol results, returned as *CmdError: resending on the same
// connection fixes none of them, and the session gate's "err busy", for
// one, is the last line before it closes the connection.
type Client struct {
	rw io.ReadWriter
	br *bufio.Reader

	// wbuf is the outgoing command line, long holds a reply line too
	// long for br's buffer, and margins is the slice Margins returns;
	// all three are reused across commands.
	wbuf    []byte
	long    []byte
	margins []CoreMargin
}

// ClientOptions is empty: the client has no settings. It stays as
// NewClient's second parameter only because atmbench, the repository's
// benchmark module, calls NewClient(rw, ClientOptions{}).
type ClientOptions struct{}

// CmdError is an in-band protocol error: the server executed, rejected
// or shed the command and said "err ...".
type CmdError struct {
	Cmd string
	Msg string
}

func (e *CmdError) Error() string { return fmt.Sprintf("fsp: %q: %s", e.Cmd, e.Msg) }

// NewClient wraps a transport. The transport is used from one goroutine
// at a time.
func NewClient(rw io.ReadWriter, _ ClientOptions) *Client {
	return &Client{rw: rw, br: bufio.NewReaderSize(rw, 4096)}
}

// readLine reads one response line with its line ending trimmed. The
// line is a view of the client's read buffer, valid until the next
// read.
func (c *Client) readLine() ([]byte, error) {
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

// Exec runs one command and returns the "ok" payload. An in-band error
// returns *CmdError; a failed write or read, or a reply that is not a
// protocol line, returns an error naming the command.
func (c *Client) Exec(cmd string) (string, error) {
	payload, err := c.exec(cmd)
	if err != nil {
		return "", err
	}
	return string(payload), nil
}

// exec sends cmd and reads its reply. The payload it returns is a view
// of the client's read buffer, valid until the next command.
func (c *Client) exec(cmd string) ([]byte, error) {
	c.wbuf = append(append(c.wbuf[:0], cmd...), '\n')
	if _, err := c.rw.Write(c.wbuf); err != nil {
		return nil, fmt.Errorf("fsp: %q: write: %w", cmd, err)
	}
	line, err := c.readLine()
	if err != nil {
		return nil, fmt.Errorf("fsp: %q: read: %w", cmd, err)
	}
	resp, wellFormed := parseResponse(line)
	if !wellFormed {
		return nil, fmt.Errorf("fsp: %q: garbled response %q", cmd, line)
	}
	if resp.isErr {
		return nil, &CmdError{Cmd: cmd, Msg: string(resp.payload)}
	}
	return resp.payload, nil
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
// the server's register address order. A lost or garbled reply fails
// the poll like any other command.
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
