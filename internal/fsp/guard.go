package fsp

import (
	"encoding/json"

	"repro/internal/guard"
)

// The server's overload envelope. Real FSP firmware services one
// operator at a time and simply stops answering when wedged; this
// server instead makes saturation explicit: a session gate sheds
// surplus connections with one in-band "err busy" line and closes
// them, and the read-only "health" verb reports the gate so an
// operator can see shedding happen instead of guessing.

// Guard arms the session gate: at most maxSessions sessions are served
// at once, and a connection over the limit is answered "err busy" and
// closed. Call before Serve; 0 (the default) leaves sessions unbounded.
func (s *Server) Guard(maxSessions int) {
	s.maxSessions = maxSessions
	if maxSessions > 0 {
		s.gate = guard.NewGate(guard.GateOptions{
			Name:  "fsp_sessions",
			Limit: maxSessions,
			Obs:   s.reg,
		})
	}
}

// healthReport is the "health" verb's document. Struct marshaling
// keeps the field order fixed, so the reply line is deterministic.
type healthReport struct {
	// ActiveSessions and MaxSessions describe the session gate
	// (0 max = unbounded).
	ActiveSessions int `json:"active_sessions"`
	MaxSessions    int `json:"max_sessions"`
	// SessionSheds counts connections the session gate shed.
	SessionSheds int64 `json:"session_sheds"`
}

// healthLine renders the server-wide health document.
func (s *Server) healthLine() string {
	return marshalHealth(healthReport{
		ActiveSessions: s.gate.Depth(),
		MaxSessions:    s.maxSessions,
		SessionSheds:   s.gate.Sheds(),
	})
}

// marshalHealth renders one health document.
func marshalHealth(rep healthReport) string {
	raw, err := json.Marshal(rep)
	if err != nil {
		// healthReport is plain data; Marshal cannot fail on it.
		return "{}"
	}
	return string(raw)
}
