// Package sentinel implements the closed-loop margin sentinel that
// keeps a fine-tuned ATM configuration safe as silicon ages. The paper
// fine-tunes the active timing margin control loop once, on fresh
// silicon; over years of field operation NBTI/HCI drift erodes the
// very margin the fine-tuning spent. The sentinel watches per-core CPM
// slack telemetry (the fsp "margins" verb), detects sustained erosion
// with an EWMA plus hysteresis, accumulates evidence through an
// integral term in the style of Chen et al.'s margin feedback
// controller (arXiv:1709.04859), and walks a graded escalation ladder:
//
//	step back  — undo one notch of fine-tuned reduction,
//	re-tune    — bounded online stress re-characterization,
//	static     — fall back to the worst-case static guardband,
//	quarantine — give up on the core entirely.
//
// The sentinel itself is a pure, deterministic state machine: it never
// touches the machine model, wall clocks, or RNG. All side effects go
// through the Actuator interface its owner provides, so the package
// depends only on internal/obs (telemetry about the sentinel itself).
// That keeps the import graph acyclic — internal/lifetime implements
// the Actuator on top of fsp + tuning and drives Observe/Act from its
// epoch loop.
package sentinel

import (
	"fmt"

	"repro/internal/obs"
)

// Action identifies a rung of the escalation ladder.
type Action int

const (
	// ActionNone: evidence below the action threshold, or the core is
	// beyond help (quarantined).
	ActionNone Action = iota
	// ActionStepBack undoes one notch of CPM reduction.
	ActionStepBack
	// ActionRetune re-runs the bounded online stress search.
	ActionRetune
	// ActionStatic falls back to the static worst-case guardband.
	ActionStatic
	// ActionQuarantine retires the core.
	ActionQuarantine
)

// String names the action for logs and metrics.
func (a Action) String() string {
	switch a {
	case ActionNone:
		return "none"
	case ActionStepBack:
		return "step-back"
	case ActionRetune:
		return "retune"
	case ActionStatic:
		return "static-fallback"
	case ActionQuarantine:
		return "quarantine"
	default:
		return "invalid"
	}
}

// Actuator is how the sentinel changes the world. Implementations
// (internal/lifetime) translate each rung into FSP/tuning operations.
// Every method returns the core's reduction after the operation; an
// error marks the recovery attempt failed, and maxFailedRecoveries
// failures in a row retire the core.
type Actuator interface {
	// StepBack lowers the core's reduction by one notch. Returns the
	// new reduction; stepping back from zero is not an error, it just
	// returns zero (the ladder escalates past it).
	StepBack(core string) (int, error)
	// Retune re-characterizes the core online and programs the fresh
	// limit. Returns the new reduction.
	Retune(core string) (int, error)
	// Static puts the core in static worst-case margin mode.
	Static(core string) error
	// Quarantine retires the core (gates it off or marks it lost).
	Quarantine(core string, reason string) error
}

// The detector and ladder constants.
const (
	// alpha is the EWMA smoothing factor.
	alpha = 0.25
	// alarmSigma arms the alarm when the smoothed margin drops below
	// it. A freshly fine-tuned core settles at or above the 4.5-sigma
	// calibration headroom (limitHeadroomSigmas in internal/silicon),
	// where the per-trial failure probability is ~7e-6; 4.2 fires while
	// the probability is still below 2e-5, so the sentinel reacts
	// before erosion reaches dangerous odds.
	alarmSigma = 4.2
	// clearSigma disarms the alarm (hysteresis). It exceeds alarmSigma
	// but stays below the 4.5-sigma post-intervention floor: a re-tuned
	// core lands exactly at the calibration headroom, and that must
	// count as recovered.
	clearSigma = 4.4
	// ki is the integral gain on the alarm error, after Chen et al.'s
	// voltage-margin feedback loop. The margin telemetry is a solved
	// model quantity, not a noisy sensor, so the gain is deliberately
	// hot: a full tap-step drop (≥ ~3 sigma) crosses actAt on the first
	// alarmed sample.
	ki = 2.0
	// integralCap is the anti-windup clamp on the accumulated evidence.
	integralCap = 3.0
	// actAt is the evidence level that triggers the ladder.
	actAt = 1.0
	// retuneAfterSteps escalates from step-back to re-tune after this
	// many step-backs since the core's last full characterization: a
	// blind one-notch retreat is cheap and instant, but each one is a
	// guess, and after enough of them the core deserves a real online
	// re-characterization of its aged silicon.
	retuneAfterSteps = 2
	// maxRetunes escalates from re-tune to static fallback after this
	// many re-tunes on a core.
	maxRetunes = 2
	// maxFailedRecoveries retires a core after this many consecutive
	// failed recoveries.
	maxFailedRecoveries = 4
)

// coreState is the per-core detector and ladder position.
type coreState struct {
	name string

	// Detector.
	ewma    float64
	seeded  bool
	alarmed bool
	// integral is the Chen-style accumulated evidence: grows while the
	// smoothed margin sits below alarmSigma, bleeds when above.
	integral float64

	// Ladder position.
	stepBacks   int // step-backs since the last re-tune
	retunes     int // lifetime re-tune count
	static      bool
	quarantined bool
	// fixPending marks that an action was taken and the alarm has not
	// cleared since: the next action therefore counts the previous one
	// as a failed recovery.
	fixPending bool
	// failedRecoveries counts consecutive failed recoveries; a
	// recovery resets it.
	failedRecoveries int
}

// Event is one sentinel decision, for the owner's timeline.
type Event struct {
	Core   string
	Action Action
	// Reduction is the core's reduction after the action (meaningful
	// for step-back and re-tune).
	Reduction int
	// Err carries the actuator failure, if any.
	Err error
}

// Sentinel watches a fixed set of cores. It is a plain deterministic
// state machine: feed it margin samples with Observe, and when Observe
// reports the evidence threshold crossed, call Act to walk the ladder.
//
//atm:nilsafe
type Sentinel struct {
	cores []coreState
	act   Actuator
	trace *obs.Tracer

	alarms   *obs.Counter
	actions  [5]*obs.Counter // indexed by Action
	failures *obs.Counter
}

// New builds a sentinel over the named cores. The order of names fixes
// the index space Observe and Act use; it must match the order the
// margin telemetry is sampled in (fsp address order). A non-nil reg
// receives sentinel counters; a non-nil tr receives an instant event
// per action.
func New(cores []string, act Actuator, reg *obs.Registry, tr *obs.Tracer) *Sentinel {
	s := &Sentinel{act: act, trace: tr}
	s.cores = make([]coreState, len(cores))
	for i, name := range cores {
		s.cores[i] = coreState{name: name}
	}
	if reg != nil {
		s.alarms = reg.Counter("sentinel_alarms_total")
		s.failures = reg.Counter("sentinel_recovery_failures_total")
		for a := ActionStepBack; a <= ActionQuarantine; a++ {
			s.actions[a] = reg.Counter("sentinel_actions_total", "action", a.String())
		}
	}
	return s
}

// Observe feeds one margin sample (in sigmas of trial-noise headroom
// above the worst-case envelope) for core i and reports whether the
// accumulated evidence crossed the action threshold. It is the per-
// sample fast path of the lifetime loop — thousands of calls per
// simulated year — and does nothing but arithmetic.
//
//atm:hotpath
func (s *Sentinel) Observe(i int, sigma float64) bool {
	if s == nil {
		return false
	}
	if i < 0 || i >= len(s.cores) {
		return false
	}
	c := &s.cores[i]
	if c.quarantined {
		return false
	}
	if !c.seeded {
		c.ewma = sigma
		c.seeded = true
	} else {
		c.ewma += alpha * (sigma - c.ewma)
	}

	// Hysteresis on the smoothed margin.
	if c.alarmed {
		if c.ewma >= clearSigma {
			c.alarmed = false
			if c.fixPending {
				// The last action restored the margin: a recovery.
				c.fixPending = false
				c.failedRecoveries = 0
			}
		}
	} else if c.ewma < alarmSigma {
		c.alarmed = true
		if s.alarms != nil {
			s.alarms.Inc()
		}
	}

	// Chen-style integral on the alarm error: accumulate evidence
	// while below the alarm line, bleed it while above.
	c.integral += ki * (alarmSigma - c.ewma)
	if c.integral < 0 {
		c.integral = 0
	} else if c.integral > integralCap {
		c.integral = integralCap
	}
	return c.alarmed && c.integral >= actAt
}

// Act walks core i one rung down the escalation ladder. Call it when
// Observe returns true. The returned event records what was done; an
// ActionNone event means the core needed nothing (already quarantined,
// or the evidence evaporated).
func (s *Sentinel) Act(i int) Event {
	if s == nil {
		return Event{}
	}
	if i < 0 || i >= len(s.cores) {
		return Event{}
	}
	c := &s.cores[i]
	if c.quarantined {
		return Event{Core: c.name, Action: ActionNone}
	}

	// A previous action whose alarm never cleared is a failed recovery.
	if c.fixPending {
		c.failedRecoveries++
		s.failures.Inc()
	}
	if c.failedRecoveries >= maxFailedRecoveries {
		// Recoveries keep failing. Retire the core.
		return s.retire(c, "recoveries keep failing")
	}

	ev := Event{Core: c.name}
	switch {
	case c.static:
		// Margin erosion in static worst-case mode means the silicon
		// has drifted past even the full guardband. Nothing gentler
		// left to try.
		return s.retire(c, "margin alarm in static mode")
	case c.stepBacks < retuneAfterSteps:
		red, err := s.act.StepBack(c.name)
		ev.Action, ev.Reduction, ev.Err = ActionStepBack, red, err
		c.stepBacks++
	case c.retunes < maxRetunes:
		red, err := s.act.Retune(c.name)
		ev.Action, ev.Reduction, ev.Err = ActionRetune, red, err
		c.retunes++
		c.stepBacks = 0
	default:
		err := s.act.Static(c.name)
		ev.Action, ev.Err = ActionStatic, err
		c.static = true
	}

	if ev.Err != nil {
		c.failedRecoveries++
		s.failures.Inc()
		c.fixPending = false
	} else {
		c.fixPending = true
	}

	// Taking an action resets the detector: the controller just
	// changed the plant, so the filter state describing the old plant
	// is stale. Re-seeding the EWMA from the next sample means a
	// successful fix clears the alarm in one epoch instead of
	// dragging the ladder through the filter's recovery transient —
	// while a fix that changed nothing re-alarms just as fast.
	c.integral = 0
	c.seeded = false
	s.note(ev)
	return ev
}

// retire quarantines a core through the actuator and pins its state.
func (s *Sentinel) retire(c *coreState, reason string) Event {
	ev := Event{Core: c.name, Action: ActionQuarantine}
	ev.Err = s.act.Quarantine(c.name, reason)
	c.quarantined = true
	c.fixPending = false
	c.integral = 0
	s.note(ev)
	return ev
}

// note exports an action to the obs plane.
func (s *Sentinel) note(ev Event) {
	if ctr := s.actions[ev.Action]; ctr != nil {
		ctr.Inc()
	}
	if s.trace != nil {
		status := "ok"
		if ev.Err != nil {
			status = "err"
		}
		s.trace.Instant("sentinel", ev.Action.String(), ev.Core,
			"core", ev.Core, "reduction", fmt.Sprintf("%d", ev.Reduction), "status", status)
	}
}
