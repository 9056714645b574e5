package perf

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/chip"
	"repro/internal/fsp"
	"repro/internal/obs"
	"repro/internal/rng"
)

// The flood harness drives N logical pipelined operator sessions
// through the REAL fsp.Server internals — session gate, per-verb
// latency histograms — with a single-goroutine seeded interleaver on a
// logical tick clock. Real TCP concurrency cannot give deterministic
// shed counts or latencies; the interleaver can, so BENCH_fsp.json's
// canonical section is a pure function of the options, while
// wall-clock throughput (req/s) is still measured around the loop and
// quarantined in the timing section.

// FloodOptions configures one flood run: its plan, which FloodRow
// records and Compare matches before it gates a row. The zero value is
// invalid; use DefaultFloodOptions as the base.
type FloodOptions struct {
	// Sessions is how many logical pipelined sessions contend.
	Sessions int `json:"sessions"`
	// Commands is how many commands each admitted session issues.
	Commands int `json:"commands"`
	// Pipeline is each session's issue-ahead window: up to this many
	// commands may be in flight (issued, not yet executed) at once.
	Pipeline int `json:"pipeline"`
	// Seed drives the interleaver and the command mix.
	Seed uint64 `json:"seed"`
	// Garbage is the per-mille rate of protocol-garbage lines mixed
	// into the command stream (0‰–1000‰), each answered in-band as an
	// unknown command.
	Garbage int `json:"garbage"`
	// MaxSessions arms the server's session gate (Server.Guard); 0
	// disables it.
	MaxSessions int `json:"max_sessions"`
}

// DefaultFloodOptions is the baseline plan: enough contention to shed
// sessions deterministically. quick shrinks it to CI size.
func DefaultFloodOptions(quick bool) FloodOptions {
	o := FloodOptions{
		Sessions:    16,
		Commands:    200,
		Pipeline:    8,
		Seed:        1,
		Garbage:     50,
		MaxSessions: 12,
	}
	if quick {
		// Shrink the budget, not the contention: the quick plan must
		// still shed sessions, or the CI baseline never exercises the
		// session gate.
		o.Commands = 50
	}
	return o
}

func (o FloodOptions) validate() error {
	if o.Sessions <= 0 || o.Commands <= 0 {
		return fmt.Errorf("perf: flood needs positive sessions and commands (got %d, %d)", o.Sessions, o.Commands)
	}
	if o.Pipeline <= 0 {
		return fmt.Errorf("perf: flood needs a positive pipeline window (got %d)", o.Pipeline)
	}
	if o.Garbage < 0 || o.Garbage > 1000 {
		return fmt.Errorf("perf: flood garbage rate %d‰ outside [0, 1000]", o.Garbage)
	}
	if o.MaxSessions < 0 {
		return fmt.Errorf("perf: flood needs a non-negative session limit (got %d)", o.MaxSessions)
	}
	return nil
}

// floodVerbs is the seeded command mix: cheap liveness, telemetry
// reads, and CPM reprogramming — the operator traffic the paper's
// fine-tuning procedures generate.
var floodVerbs = []string{
	"ping t%d",
	"freq P0C3",
	"margins",
	"cpm P0C3",
	"cpm P0C3 4",
	"chip P0",
	"stats",
	"health",
}

// FloodResult is one run's outcome: everything except WallNS is a
// pure function of the options.
type FloodResult struct {
	Issued       int64
	Executed     int64
	ShedSessions int64
	Errors       int64
	P50Ticks     float64
	P95Ticks     float64
	P99Ticks     float64
	WallNS       int64
}

// pendingCmd is one issued-but-unexecuted command.
type pendingCmd struct {
	line      string
	issueTick int64
}

// floodSession is one logical operator session.
type floodSession struct {
	sess    *fsp.Session
	queue   []pendingCmd
	issued  int
	release func()
}

// Flood runs the harness and returns the measured outcome.
func Flood(o FloodOptions) (*FloodResult, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	srv := fsp.NewServer(fsp.NewController(chip.NewReference()))
	srv.Observe(reg)

	// One logical clock rules everything: per-verb latency histograms
	// and the client-side issue→execute distances read the same tick
	// counter. Wall time is read only around the loop, into WallNS.
	var ticks int64
	srv.SetClock(func() int64 { return ticks })
	srv.Guard(o.MaxSessions)
	latency := reg.Histogram("flood_latency_ticks", fsp.LatencyBuckets)

	res := &FloodResult{}
	src := rng.New(o.Seed)

	// Admission storm: every session connects up front, exactly like a
	// fleet of operator scripts starting at once. Shed sessions stay
	// shed — their command budget is never issued.
	var live []*floodSession
	for i := 0; i < o.Sessions; i++ {
		release, ok := srv.Admit()
		if !ok {
			res.ShedSessions++
			continue
		}
		live = append(live, &floodSession{
			sess:    srv.LocalSession(),
			release: release,
		})
	}

	began := nowNS()
	for len(live) > 0 {
		// Seeded interleaver: pick one live session, let it issue a
		// burst into its pipeline window, then execute its oldest
		// queued command on this tick.
		si := src.Intn(len(live))
		s := live[si]

		burst := 1 + src.Intn(o.Pipeline)
		for b := 0; b < burst && s.issued < o.Commands && len(s.queue) < o.Pipeline; b++ {
			s.queue = append(s.queue, pendingCmd{
				line:      nextCommand(src, o, s.issued),
				issueTick: ticks,
			})
			s.issued++
			res.Issued++
		}

		if len(s.queue) > 0 {
			cmd := s.queue[0]
			s.queue = s.queue[1:]
			ticks++ // one executed command per tick
			resp := s.sess.Exec(cmd.line)
			latency.Observe(float64(ticks - cmd.issueTick))
			res.Executed++
			if strings.HasPrefix(resp, "err") {
				res.Errors++
			}
		}

		if s.issued >= o.Commands && len(s.queue) == 0 {
			s.release()
			live = append(live[:si], live[si+1:]...)
		}
	}
	res.WallNS = nowNS() - began
	res.P50Ticks = latency.Quantile(0.5)
	res.P95Ticks = latency.Quantile(0.95)
	res.P99Ticks = latency.Quantile(0.99)
	return res, nil
}

// nextCommand draws one line of the seeded mix: mostly real verbs,
// o.Garbage‰ protocol garbage.
func nextCommand(src *rng.Source, o FloodOptions, seq int) string {
	if src.Intn(1000) < o.Garbage {
		return fmt.Sprintf("garbage%d", seq)
	}
	verb := floodVerbs[src.Intn(len(floodVerbs))]
	if strings.Contains(verb, "%d") {
		return fmt.Sprintf(verb, seq)
	}
	return verb
}

// FloodDoc assembles the BENCH_fsp.json artifact from a run.
func FloodDoc(o FloodOptions, quick bool, r *FloodResult) *Doc {
	shedRate := 0.0
	if o.Sessions > 0 {
		shedRate = float64(r.ShedSessions) / float64(o.Sessions)
	}
	reqPerSec := 0.0
	if r.WallNS > 0 {
		reqPerSec = float64(r.Executed) * 1e9 / float64(r.WallNS)
	}
	return &Doc{
		Bench:  "fsp",
		Schema: SchemaVersion,
		Quick:  quick,
		Flood: &FloodRow{
			FloodOptions: o,
			Issued:       r.Issued,
			Executed:     r.Executed,
			ShedSessions: r.ShedSessions,
			Errors:       r.Errors,
			ShedRate:     shedRate,
			P50Ticks:     r.P50Ticks,
			P95Ticks:     r.P95Ticks,
			P99Ticks:     r.P99Ticks,
		},
		Timing: Timing{
			CPUs:      runtime.NumCPU(),
			TotalNS:   r.WallNS,
			ReqPerSec: reqPerSec,
		},
	}
}
