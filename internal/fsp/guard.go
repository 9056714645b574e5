package fsp

import (
	"encoding/json"

	"repro/internal/guard"
)

// The server's overload envelope. Real FSP firmware services one
// operator at a time and simply stops answering when wedged; this
// server instead makes saturation explicit and recoverable: a session
// gate sheds surplus connections with an in-band "err busy" line
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
	// GarbageThreshold > 0 arms a per-session circuit breaker: that
	// many consecutive garbage lines (unknown verbs, unparseable
	// commands) trip the session open, and further commands are
	// answered "err busy breaker open" until the open window passes.
	// 0 disables.
	GarbageThreshold int
	// Now supplies the breakers' logical clock. Nil leaves them on
	// their internal event clocks (deterministic without any wall
	// clock).
	Now func() int64
}

// Guard arms the server's guard plane. Call before Serve; the zero
// options value disables all guards (the default).
func (s *Server) Guard(o GuardOptions) {
	s.guardOpt = o
	if o.MaxSessions > 0 {
		s.gate = guard.NewGate(guard.GateOptions{
			Name:  "fsp_sessions",
			Limit: o.MaxSessions,
			Obs:   s.reg,
		})
	}
	s.shedC = s.reg.Counter("fsp_server_shed_total")
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
	// SessionSheds counts connections the session gate shed.
	SessionSheds int64 `json:"session_sheds"`
}

// healthLine renders the server-wide health document for one session.
func (s *Server) healthLine(brk *guard.Breaker) string {
	rep := healthReport{
		Breaker:         brk.State().String(),
		BreakerRejected: brk.Rejected(),
		ActiveSessions:  s.gate.Depth(),
		MaxSessions:     s.guardOpt.MaxSessions,
		SessionSheds:    s.gate.Sheds(),
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		// healthReport is plain data; Marshal cannot fail on it.
		return "{}"
	}
	return string(raw)
}
