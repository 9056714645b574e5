package fsp

import "encoding/json"

// The server's overload envelope. Real FSP firmware services one
// operator at a time and simply stops answering when wedged; this
// server instead makes saturation explicit: a session gate sheds
// surplus connections with one in-band "err busy" line and closes
// them, and the read-only "health" verb reports the gate so an
// operator can see shedding happen instead of guessing.

// gateName labels the session gate's metric series.
const gateName = "fsp_sessions"

// Guard arms the session gate: at most maxSessions sessions are served
// at once, and a connection over the limit is answered "err busy" and
// closed. Call after Observe and before Serve; 0 (the default) leaves
// sessions unbounded and uncounted. With a registry attached, the gate
// exports guard_gate_depth (sessions held) and guard_gate_shed_total.
func (s *Server) Guard(maxSessions int) {
	s.maxSessions = maxSessions
	if maxSessions > 0 {
		s.depthG = s.reg.Gauge("guard_gate_depth", "name", gateName)
		s.shedC = s.reg.Counter("guard_gate_shed_total", "name", gateName)
	}
}

// admit claims a session slot for one connection, or counts a shed
// when maxSessions sessions are already served. An admitted session
// must call release exactly once when it ends (serveConn defers it).
func (s *Server) admit() bool {
	if s.maxSessions <= 0 {
		return true
	}
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.active >= s.maxSessions {
		s.sheds++
		s.shedC.Inc()
		return false
	}
	s.active++
	s.depthG.Set(float64(s.active))
	return true
}

// release returns the slot an admitted session held.
func (s *Server) release() {
	if s.maxSessions <= 0 {
		return
	}
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	s.active--
	s.depthG.Set(float64(s.active))
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
	s.gateMu.Lock()
	rep := healthReport{ActiveSessions: s.active, MaxSessions: s.maxSessions, SessionSheds: s.sheds}
	s.gateMu.Unlock()
	return marshalHealth(rep)
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
