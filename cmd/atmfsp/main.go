// Command atmfsp serves the service-processor operator protocol on
// stdio, so the fine-tuning procedures can be driven by a shell script
// exactly as they would be on the test floor:
//
//	$ printf 'cpm P0C3 6\nfreq P0C3\nchip P0\nquit\n' | atmfsp
//	ok
//	ok 4906 MHz
//	ok power=55.2W supply=1250mV temp=40.5C budget=1
//	ok bye
//
// Run with -generated <seed> to control Monte-Carlo silicon instead of
// the paper-calibrated reference server, or with -listen <addr> to serve
// the protocol over TCP (one shared machine, sessions serialized):
//
//	atmfsp -listen 127.0.0.1:7077 &
//	printf 'freq P0C3\nquit\n' | nc 127.0.0.1 7077
//
// Exit codes: 0 success, 1 hard failure, 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	atm "repro"
	"repro/internal/fsp"
)

// wallMicros is the latency clock for live serving: the per-verb
// fsp_session_latency histograms (read back via the "stats" verb)
// count wall-clock microseconds.
func wallMicros() int64 { return time.Now().UnixMicro() }

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run serves one stdio session from stdin to stdout, or the TCP
// listener -listen names, and returns the exit code.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atmfsp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("generated", 0, "use Monte-Carlo silicon with this seed (0 = paper reference)")
	listen := fs.String("listen", "", "serve the protocol on this TCP address instead of stdio")
	maxSessions := fs.Int("max-sessions", 0,
		"bound concurrently served sessions; surplus connections get an in-band 'err busy' (0 = unbounded)")
	garbage := fs.Int("garbage-threshold", 0,
		"consecutive protocol-garbage lines before a session's circuit breaker trips open (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		//lint:ignore errdrop the diagnostic on stderr is the last report a failing run can make
		fmt.Fprintln(stderr, "atmfsp:", err)
		return 1
	}

	var m *atm.Machine
	if *seed == 0 {
		m = atm.NewReferenceMachine()
	} else {
		profile, err := atm.GenerateSilicon(*seed, atm.GenerateOptions{})
		if err != nil {
			return fail(err)
		}
		if m, err = atm.NewMachine(profile); err != nil {
			return fail(err)
		}
	}
	ctl := fsp.NewController(m)
	reg := atm.NewMetricsRegistry()
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return fail(err)
		}
		//lint:ignore errdrop the listening address on stderr is CLI chatter; Serve reports the listener's errors
		fmt.Fprintln(stderr, "atmfsp: serving on", l.Addr())
		srv := fsp.NewServer(ctl)
		srv.Observe(reg)
		srv.SetClock(wallMicros)
		if err := srv.Guard(fsp.GuardOptions{
			MaxSessions:      *maxSessions,
			GarbageThreshold: *garbage,
		}); err != nil {
			return fail(err)
		}
		if err := srv.Serve(l); err != nil {
			return fail(err)
		}
		return 0
	}
	sess := fsp.NewSession(ctl)
	sess.Observe(reg)
	sess.SetClock(wallMicros)
	if err := sess.Serve(stdin, stdout); err != nil {
		return fail(err)
	}
	return 0
}
