package fsp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Session is the line-oriented operator protocol over a controller —
// what a test-floor script talks to. One command per line; responses
// are single lines starting with "ok" or "err".
//
// Commands:
//
//	getscom <hex-addr>                read a raw register
//	putscom <hex-addr> <value>        write a raw register
//	cpm <core> [<reduction>]          read/program a core's CPM reduction
//	mode <core> <static|atm>          set clocking mode
//	pstate <core> <MHz>               set the DVFS p-state
//	gate <core> <on|off>              power-gate a core
//	freq <core>                       settled frequency (MHz)
//	margins                           every core's CPM slack margin (sigmas)
//	chip <P0|P1>                      chip telemetry line
//	cores                             list core labels
//	ping <token>                      echo (client liveness probe)
//	stats                             read-only metrics snapshot (JSON)
//	health                            read-only session-gate state (JSON)
//	quit                              end the session
type Session struct {
	ctl *Controller
	ob  sessionObs

	// health, when non-nil, renders the "health" verb's document. The
	// network server wires it to the server-wide view; a standalone
	// session reports an unbounded, idle gate.
	health func() string

	// clock, when non-nil, timestamps each command around dispatch and
	// records the delta in the per-verb fsp_session_latency histogram.
	// Units are the caller's: cmd/atmfsp wires wall-clock microseconds,
	// the deterministic flood harness wires logical ticks. Nil (the
	// default) skips latency measurement entirely.
	clock func() int64

	// reply is Exec's response buffer, reused across commands.
	reply []byte
}

// sessionObs is the session's pre-resolved metric handle set plus the
// registry the "stats" verb snapshots. The zero value is the disabled
// plane: counters no-op and "stats" answers the empty snapshot.
type sessionObs struct {
	reg     *obs.Registry
	verbs   map[string]*obs.Counter   // per known verb
	lat     map[string]*obs.Histogram // per known verb, clock units
	unknown *obs.Counter
	latUnk  *obs.Histogram
	errs    *obs.Counter
}

// LatencyBuckets is the fixed bucket layout of the per-verb
// fsp_session_latency histogram. The bounds are unit-agnostic — they
// cover wall-clock microseconds (1 µs … 100 ms) as well as the flood
// harness's logical ticks — and they are part of the BENCH_fsp.json
// schema: changing them invalidates checked-in quantile baselines.
var LatencyBuckets = []float64{
	1, 2, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 25000, 50000, 100000,
}

// sessionVerbs is every verb the dispatcher understands ("quit" is
// handled by the serve loop and never reaches Exec).
var sessionVerbs = []string{
	"getscom", "putscom", "cpm", "mode", "pstate", "gate",
	"freq", "margins", "chip", "cores", "ping", "stats", "health",
}

// Observe resolves per-verb command counters and an in-band error
// counter against r, and makes r the registry the read-only "stats"
// verb dumps — the software analogue of reading telemetry SCOMs over
// the wire. Call before serving traffic; nil disables again.
func (s *Session) Observe(r *obs.Registry) {
	if r == nil {
		s.ob = sessionObs{}
		return
	}
	verbs := make(map[string]*obs.Counter, len(sessionVerbs))
	lat := make(map[string]*obs.Histogram, len(sessionVerbs))
	for _, v := range sessionVerbs {
		verbs[v] = r.Counter("fsp_session_commands_total", "verb", v)
		lat[v] = r.Histogram("fsp_session_latency", LatencyBuckets, "verb", v)
	}
	s.ob = sessionObs{
		reg:     r,
		verbs:   verbs,
		lat:     lat,
		unknown: r.Counter("fsp_session_commands_total", "verb", "unknown"),
		latUnk:  r.Histogram("fsp_session_latency", LatencyBuckets, "verb", "unknown"),
		errs:    r.Counter("fsp_session_errors_total"),
	}
}

// SetClock supplies the timestamp source for per-verb latency
// histograms. Each Exec samples the clock before and after dispatch
// and observes the delta; units are whatever the clock counts (the
// network server wires wall microseconds, the flood harness logical
// ticks). Nil disables measurement — the default, and the hot path
// then never calls the clock.
func (s *Session) SetClock(fn func() int64) { s.clock = fn }

// NewSession wraps a controller.
func NewSession(ctl *Controller) *Session { return &Session{ctl: ctl} }

// MaxLineBytes caps one command line. A line over the cap is consumed
// to its newline and answered with "err line too long" in-band — the
// session survives, instead of the scanner silently stopping with a
// buffer overflow as an out-of-band transport error.
const MaxLineBytes = 64 * 1024

// Serve processes commands from r and writes responses to w until EOF
// or "quit". Protocol errors are reported in-band; only transport
// errors are returned.
func (s *Session) Serve(r io.Reader, w io.Writer) error {
	return s.serveWith(r, w, s.Exec)
}

// serveWith is Serve with a pluggable executor — the network server
// wraps Exec in a lock so concurrent connections serialize against the
// shared controller.
func (s *Session) serveWith(r io.Reader, w io.Writer, exec func(string) string) error {
	br := bufio.NewReaderSize(r, 4096)
	for {
		raw, tooLong, err := readCappedLine(br, MaxLineBytes)
		if err != nil && !errors.Is(err, io.EOF) {
			return err // transport error
		}
		atEOF := err != nil
		if tooLong {
			if _, werr := fmt.Fprintln(w, "err line too long"); werr != nil {
				return werr
			}
		} else if line := strings.TrimSpace(raw); line != "" && !strings.HasPrefix(line, "#") {
			if line == "quit" {
				if _, werr := fmt.Fprintln(w, "ok bye"); werr != nil {
					return werr
				}
				return nil
			}
			if _, werr := fmt.Fprintln(w, exec(line)); werr != nil {
				return werr
			}
		}
		if atEOF {
			return nil
		}
	}
}

// readCappedLine reads one newline-terminated line of at most cap
// bytes. A longer line is consumed up to and including its newline and
// reported with tooLong=true so the protocol can answer in-band. A
// final unterminated line before EOF is returned with err == io.EOF.
func readCappedLine(br *bufio.Reader, limit int) (line string, tooLong bool, err error) {
	var buf []byte
	for {
		frag, rerr := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if rerr == nil || errors.Is(rerr, io.EOF) {
			s := strings.TrimSuffix(string(buf), "\n")
			if len(s) > limit {
				return "", true, rerr
			}
			return s, false, rerr
		}
		if !errors.Is(rerr, bufio.ErrBufferFull) {
			return string(buf), false, rerr
		}
		if len(buf) > limit {
			// Over the cap mid-line: discard the remainder.
			for {
				_, derr := br.ReadSlice('\n')
				if derr == nil || errors.Is(derr, io.EOF) {
					return "", true, derr
				}
				if !errors.Is(derr, bufio.ErrBufferFull) {
					return "", true, derr
				}
			}
		}
	}
}

// Exec runs one command line and returns the response line.
func (s *Session) Exec(line string) string {
	s.reply = s.exec(s.reply[:0], line)
	return string(s.reply)
}

// exec runs one command line and appends its response line, without
// the newline, to dst.
func (s *Session) exec(dst []byte, line string) []byte {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		s.ob.errs.Inc()
		return append(dst, "err empty command"...)
	}
	cmd, args := fields[0], fields[1:]
	if s.clock == nil {
		return s.execVerb(dst, cmd, args)
	}
	began := s.clock()
	dst = s.execVerb(dst, cmd, args)
	s.observeLatency(cmd, began)
	return dst
}

// observeLatency records one command's clock delta in the per-verb
// latency histogram. With no registry attached every handle is nil and
// the whole sequence is allocation-free (pinned by a test).
func (s *Session) observeLatency(cmd string, began int64) {
	h, known := s.ob.lat[cmd]
	if !known {
		h = s.ob.latUnk
	}
	h.Observe(float64(s.clock() - began))
}

// execVerb runs one parsed command — counters, then dispatch — and
// appends its response line to dst.
func (s *Session) execVerb(dst []byte, cmd string, args []string) []byte {
	if vc, known := s.ob.verbs[cmd]; known {
		vc.Inc()
	} else {
		s.ob.unknown.Inc()
	}
	n := len(dst)
	out, err := s.dispatch(append(dst, "ok "...), cmd, args)
	if err != nil {
		s.ob.errs.Inc()
		return append(append(out[:n], "err "...), err.Error()...)
	}
	if len(out) == n+len("ok ") {
		// An empty payload answers a bare "ok".
		return out[:n+len("ok")]
	}
	return out
}

// healthDoc renders the "health" verb's JSON document.
func (s *Session) healthDoc() string {
	if s.health != nil {
		return s.health()
	}
	return marshalHealth(healthReport{})
}

// dispatch runs one verb and appends its payload to dst. On an error it
// returns dst, possibly grown, and the caller discards what it appended.
func (s *Session) dispatch(dst []byte, cmd string, args []string) ([]byte, error) {
	switch cmd {
	case "getscom":
		if len(args) != 1 {
			return dst, fmt.Errorf("usage: getscom <hex-addr>")
		}
		a, err := parseAddr(args[0])
		if err != nil {
			return dst, err
		}
		v, err := s.ctl.Getscom(a)
		if err != nil {
			return dst, err
		}
		return fmt.Appendf(dst, "%#x", v), nil

	case "putscom":
		if len(args) != 2 {
			return dst, fmt.Errorf("usage: putscom <hex-addr> <value>")
		}
		a, err := parseAddr(args[0])
		if err != nil {
			return dst, err
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(args[1], "0x"), 0, 64)
		if err != nil {
			return dst, fmt.Errorf("bad value %q", args[1])
		}
		return dst, s.ctl.Putscom(a, v)

	case "cpm":
		if len(args) < 1 || len(args) > 2 {
			return dst, fmt.Errorf("usage: cpm <core> [<reduction>]")
		}
		ci, ki, err := s.ctl.CoreAddrByLabel(args[0])
		if err != nil {
			return dst, err
		}
		addr := MakeCoreAddr(ci, ki, regCPMReduction)
		if len(args) == 2 {
			red, err := strconv.Atoi(args[1])
			if err != nil || red < 0 {
				return dst, fmt.Errorf("bad reduction %q", args[1])
			}
			return dst, s.ctl.Putscom(addr, uint64(red))
		}
		v, err := s.ctl.Getscom(addr)
		if err != nil {
			return dst, err
		}
		return strconv.AppendUint(dst, v, 10), nil

	case "mode":
		if len(args) != 2 {
			return dst, fmt.Errorf("usage: mode <core> <static|atm>")
		}
		ci, ki, err := s.ctl.CoreAddrByLabel(args[0])
		if err != nil {
			return dst, err
		}
		var v uint64
		switch args[1] {
		case "static":
			v = 0
		case "atm":
			v = 1
		default:
			return dst, fmt.Errorf("mode %q not static|atm", args[1])
		}
		return dst, s.ctl.Putscom(MakeCoreAddr(ci, ki, regMode), v)

	case "pstate":
		if len(args) != 2 {
			return dst, fmt.Errorf("usage: pstate <core> <MHz>")
		}
		ci, ki, err := s.ctl.CoreAddrByLabel(args[0])
		if err != nil {
			return dst, err
		}
		mhz, err := strconv.ParseUint(args[1], 10, 32)
		if err != nil {
			return dst, fmt.Errorf("bad p-state %q", args[1])
		}
		return dst, s.ctl.Putscom(MakeCoreAddr(ci, ki, regPState), mhz)

	case "gate":
		if len(args) != 2 {
			return dst, fmt.Errorf("usage: gate <core> <on|off>")
		}
		ci, ki, err := s.ctl.CoreAddrByLabel(args[0])
		if err != nil {
			return dst, err
		}
		var v uint64
		switch args[1] {
		case "on":
			v = 1
		case "off":
			v = 0
		default:
			return dst, fmt.Errorf("gate %q not on|off", args[1])
		}
		return dst, s.ctl.Putscom(MakeCoreAddr(ci, ki, regGated), v)

	case "freq":
		if len(args) != 1 {
			return dst, fmt.Errorf("usage: freq <core>")
		}
		ci, ki, err := s.ctl.CoreAddrByLabel(args[0])
		if err != nil {
			return dst, err
		}
		v, err := s.ctl.Getscom(MakeCoreAddr(ci, ki, regFreq))
		if err != nil {
			return dst, err
		}
		return append(strconv.AppendUint(dst, v, 10), " MHz"...), nil

	case "margins":
		if len(args) != 0 {
			return dst, fmt.Errorf("usage: margins")
		}
		// Read-only batch telemetry: every core's CPM slack margin to the
		// worst-case workload envelope, in per-trial sigmas, in register
		// address order. One round trip reads the whole server — the
		// margin sentinel's per-sample poll.
		start := len(dst)
		for ci, ch := range s.ctl.m.Chips {
			for ki, core := range ch.Cores {
				v, err := s.ctl.Getscom(MakeCoreAddr(ci, ki, regMargin))
				if err != nil {
					return dst, err
				}
				if len(dst) > start {
					dst = append(dst, ' ')
				}
				dst = append(dst, core.Profile.Label...)
				dst = append(dst, '=')
				dst = appendMilli(dst, int64(v))
			}
		}
		return dst, nil

	case "chip":
		if len(args) != 1 {
			return dst, fmt.Errorf("usage: chip <label>")
		}
		ci := -1
		for i, ch := range s.ctl.m.Chips {
			if ch.Profile.Label == args[0] {
				ci = i
			}
		}
		if ci < 0 {
			return dst, fmt.Errorf("no chip %q", args[0])
		}
		p, err := s.ctl.Getscom(MakeChipAddr(ci, regChipPower))
		if err != nil {
			return dst, err
		}
		v, err := s.ctl.Getscom(MakeChipAddr(ci, regChipVolt))
		if err != nil {
			return dst, err
		}
		t, err := s.ctl.Getscom(MakeChipAddr(ci, regChipTemp))
		if err != nil {
			return dst, err
		}
		ok, err := s.ctl.Getscom(MakeChipAddr(ci, regChipInBudg))
		if err != nil {
			return dst, err
		}
		return fmt.Appendf(dst, "power=%.1fW supply=%dmV temp=%.1fC budget=%d",
			float64(p)/1000, v, float64(t)/1000, ok), nil

	case "cores":
		for i, l := range s.ctl.Labels() {
			if i > 0 {
				dst = append(dst, ' ')
			}
			dst = append(dst, l...)
		}
		return dst, nil

	case "ping":
		if len(args) != 1 {
			return dst, fmt.Errorf("usage: ping <token>")
		}
		// Echo for liveness probes: the token lets a client tell its
		// probe's reply from any other line.
		return append(append(dst, "pong "...), args[0]...), nil

	case "stats":
		if len(args) != 0 {
			return dst, fmt.Errorf("usage: stats")
		}
		// Read-only: one compact JSON line of every registered metric.
		// With no registry attached the snapshot is legitimately empty.
		return append(dst, s.ob.reg.SnapshotJSON()...), nil

	case "health":
		if len(args) != 0 {
			return dst, fmt.Errorf("usage: health")
		}
		// Read-only: the session gate's state as one JSON line.
		return append(dst, s.healthDoc()...), nil

	default:
		return dst, fmt.Errorf("unknown command %q", cmd)
	}
}

// appendMilli appends a milli-unit register value m as a decimal with
// exactly three fraction digits. The bytes equal fmt's "%.3f" of
// float64(m)/1000 for |m| ≤ 1000·2^43 (about 8.8e15): up to that bound
// the double nearest m/1000 lies within half an ulp, under 0.0005, of
// m's exact decimal, so "%.3f" rounds back to it. Past it the two can
// differ; margin registers stay many orders of magnitude below it.
func appendMilli(b []byte, m int64) []byte {
	q, r := m/1000, m%1000
	if r < 0 {
		r = -r
	}
	// Go's division truncates toward zero, so q drops the sign of
	// m in (-1000, 0).
	if m < 0 && q == 0 {
		b = append(b, '-')
	}
	b = strconv.AppendInt(b, q, 10)
	return append(b, '.', byte('0'+r/100), byte('0'+r/10%10), byte('0'+r%10))
}

func parseAddr(s string) (Addr, error) {
	v, err := strconv.ParseUint(strings.TrimPrefix(s, "0x"), 16, 32)
	if err != nil {
		return 0, fmt.Errorf("bad address %q", s)
	}
	return Addr(v), nil
}
