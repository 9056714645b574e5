package fsp

import (
	"encoding/json"
	"errors"

	"repro/internal/guard"
)

// The server's overload envelope. Real FSP firmware services one
// operator at a time and simply stops answering when wedged; this
// server instead makes saturation explicit and recoverable: admission
// control sheds surplus connections with an in-band "err busy" line
// (which fsp.Client treats as retryable), a per-session circuit
// breaker cuts off peers spewing protocol garbage, and the read-only
// "health" verb reports the whole guard plane so an operator can see
// shedding happen instead of guessing.

// GuardOptions configures the server's guard plane. The zero value
// disables everything; each guard arms only when its own field is set,
// so the options compose field-by-field.
type GuardOptions struct {
	// MaxSessions bounds concurrently served sessions; a connection
	// over the limit is answered "err busy" and closed. 0 disables.
	MaxSessions int
	// AcceptCapacity > 0 arms a token bucket on session admission with
	// that burst capacity: connection storms beyond the burst are shed
	// in-band. One tick of Now buys back one token, so the bucket needs
	// Now. 0 disables.
	AcceptCapacity int64
	// GarbageThreshold > 0 arms a per-session circuit breaker: that
	// many consecutive garbage lines (unknown verbs, unparseable
	// commands) trip the session open, and further commands are
	// answered "err busy breaker open" until the open window passes.
	// 0 disables.
	GarbageThreshold int
	// Now supplies the logical clock for the bucket and the breakers.
	// Nil leaves the breakers on their internal event clocks
	// (deterministic without any wall clock) and rejects a bucket.
	Now func() int64
}

// Guard arms the server's guard plane. Call before Serve; the zero
// options value disables all guards (the default). It rejects an
// AcceptCapacity without Now: a bucket without a clock cannot run dry.
func (s *Server) Guard(o GuardOptions) error {
	if o.AcceptCapacity > 0 && o.Now == nil {
		return errors.New("fsp: AcceptCapacity needs a Now clock")
	}
	s.guardOpt = o
	if o.MaxSessions > 0 {
		s.gate = guard.NewGate(guard.GateOptions{
			Name:  "fsp_sessions",
			Limit: o.MaxSessions,
			Obs:   s.reg,
		})
	}
	if o.AcceptCapacity > 0 {
		s.bucket = guard.NewBucket(guard.BucketOptions{
			Name:     "fsp_accept",
			Capacity: o.AcceptCapacity,
			Now:      o.Now,
			Obs:      s.reg,
		})
	}
	s.shedC = s.reg.Counter("fsp_server_shed_total")
	return nil
}

// sessionBreaker builds one session's garbage breaker, or nil when the
// guard is disabled. Every session shares the metric name, so the
// exported counters aggregate across sessions. The breaker keeps the
// default open window of 8 ticks, deliberately below the client's
// re-sync window of 32 lines, so a resyncing client's pings can walk
// the breaker to half-open and recover the session; one clean command
// then closes it.
func (s *Server) sessionBreaker() *guard.Breaker {
	if s.guardOpt.GarbageThreshold <= 0 {
		return nil
	}
	return guard.NewBreaker(guard.BreakerOptions{
		Name:             "fsp_session",
		FailureThreshold: s.guardOpt.GarbageThreshold,
		Now:              s.guardOpt.Now,
		Obs:              s.reg,
	})
}

// healthReport is the "health" verb's document. Struct marshaling
// keeps the field order fixed, so the reply line is deterministic.
type healthReport struct {
	// Breaker is this session's breaker state ("closed" when the guard
	// is disabled — the disabled breaker never opens).
	Breaker string `json:"breaker"`
	// BreakerRejected counts commands this session's breaker shed.
	BreakerRejected int64 `json:"breaker_rejected"`
	// ActiveSessions and MaxSessions describe the session gate
	// (0 max = unbounded).
	ActiveSessions int `json:"active_sessions"`
	MaxSessions    int `json:"max_sessions"`
	// AcceptSheds and SessionSheds count connections shed by the
	// admission bucket and the session gate respectively.
	AcceptSheds  int64 `json:"accept_sheds"`
	SessionSheds int64 `json:"session_sheds"`
}

// healthLine renders the server-wide health document for one session.
func (s *Server) healthLine(brk *guard.Breaker) string {
	rep := healthReport{
		Breaker:         brk.State().String(),
		BreakerRejected: brk.Rejected(),
		ActiveSessions:  s.gate.Depth(),
		MaxSessions:     s.guardOpt.MaxSessions,
		AcceptSheds:     s.bucket.Sheds(),
		SessionSheds:    s.gate.Sheds(),
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		// healthReport is plain data; Marshal cannot fail on it.
		return "{}"
	}
	return string(raw)
}
