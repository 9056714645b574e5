package chip

import (
	"errors"
	"fmt"

	"repro/internal/rng"
	"repro/internal/workload"
)

// ErrTransient marks infrastructure failures of the test procedure
// itself — a flaky harness, a telemetry upset — as opposed to a timing
// violation of the silicon under test or a structural model error.
// Callers running characterization or deployment procedures may retry
// operations that fail with an error wrapping ErrTransient; any other
// error is a bug and must abort.
var ErrTransient = errors.New("transient infrastructure fault")

// TrialFault is an injection hook consulted after every trial: it may
// pass the result through unchanged, perturb it, or return an error
// (wrapping ErrTransient for retryable harness failures). It exists so
// internal/fault can arm spurious trial failures without the simulation
// packages importing the injector.
type TrialFault func(label, workload string, res TrialResult) (TrialResult, error)

// FailureKind classifies how a run failed (Sec. III-B: "abnormal
// application termination (e.g., segmentation fault), silent data
// corruption (SDC), or a system crash").
type FailureKind int

// Failure kinds.
const (
	FailureNone FailureKind = iota
	FailureSegfault
	FailureSDC
	FailureSystemCrash
)

func (k FailureKind) String() string {
	switch k {
	case FailureNone:
		return "ok"
	case FailureSegfault:
		return "abnormal-exit"
	case FailureSDC:
		return "sdc"
	case FailureSystemCrash:
		return "system-crash"
	default:
		return fmt.Sprintf("failure(%d)", int(k))
	}
}

// TrialResult is the outcome of running one workload once on one core at
// its current CPM configuration.
type TrialResult struct {
	Core      string
	Workload  string
	Reduction int
	Failure   FailureKind
	// Detected reports whether the methodology can observe the failure:
	// crashes and abnormal exits are always visible; SDC requires the
	// workload's result checker.
	Detected bool
}

// OK reports whether the run completed and verified correctly.
func (r TrialResult) OK() bool { return r.Failure == FailureNone }

// RunTrial executes one stochastic trial of workload w on the labelled
// core at its currently programmed CPM reduction.
//
// The trial asks the silicon failure model whether the guarded CPM path
// still covers the true critical path under the workload's uncovered
// droop tail. On a timing violation, the failure manifestation is drawn
// from the empirical mix the paper reports; whether it is *detected*
// depends on the workload's checker (SDCs in checker-less programs
// escape — which is why the methodology insists on checked workloads).
// An armed trial fault hook then sees the outcome.
//
//atm:hotpath
func (m *Machine) RunTrial(label string, w workload.Profile, src *rng.Source) (TrialResult, error) {
	core, err := m.Core(label)
	if err != nil {
		return TrialResult{}, err
	}
	return m.runTrial(core, &w, src)
}

// runTrial is RunTrial on a resolved core: the physical trial, then the
// harness fault hook, which can fail the trial independently of how the
// silicon behaved.
//
//atm:hotpath
func (m *Machine) runTrial(core *Core, w *workload.Profile, src *rng.Source) (TrialResult, error) {
	res := TrialResult{
		Core:      core.Profile.Label,
		Workload:  w.Name,
		Reduction: core.Reduction(),
		Detected:  true,
	}
	// Static margin guards the worst case by construction; a trial under
	// static margin always passes.
	if core.mode == ModeATM {
		ok, err := core.Profile.SurvivesTrial(res.Reduction, w.StressScore, src)
		if err != nil {
			return TrialResult{}, err
		}
		if !ok {
			// Timing violation: draw the manifestation.
			switch u := src.Float64(); {
			case u < 0.45:
				res.Failure = FailureSegfault
			case u < 0.75:
				res.Failure = FailureSystemCrash
			default:
				res.Failure = FailureSDC
				res.Detected = w.HasChecker
			}
		}
	}
	if m.trialFault != nil {
		return m.trialFault(res.Core, res.Workload, res)
	}
	return res, nil
}

// RunStressmark executes a stressmark trial: the stress score is the
// mark's own, and the synchronized variants also verify the chip stays
// inside its thermal envelope at the stressmark operating point.
func (m *Machine) RunStressmark(label string, s workload.Stressmark, src *rng.Source) (TrialResult, error) {
	if err := s.Validate(); err != nil {
		return TrialResult{}, err
	}
	return m.RunTrial(label, s.Profile, src)
}

// TrialObserver is notified once per retry-wrapped trial
// (RunStressmarkRetry, RunCoreTrialRetry) that reached a core, with the
// number of transient retries consumed and the final outcome. It is the
// observability plane's tap: observers count and trace, they never
// perturb the trial or its random streams.
type TrialObserver func(label, workload string, retries int, res TrialResult, err error)

// RunStressmarkRetry is RunStressmark with a bounded retry budget for
// transient harness failures.
func (m *Machine) RunStressmarkRetry(label string, s workload.Stressmark, src *rng.Source, retries int) (TrialResult, error) {
	if err := s.Validate(); err != nil {
		return TrialResult{}, err
	}
	core, err := m.Core(label)
	if err != nil {
		return TrialResult{}, err
	}
	return m.RunCoreTrialRetry(core, s.Profile, src, retries)
}

// RunCoreTrialRetry is RunTrial on a core handle with a bounded retry
// budget for transient harness failures (ErrTransient); genuine model
// errors and timing violations are never retried. It is for callers
// that run many trials on one core: it skips the label lookup and
// allocates nothing. Attempt 0 draws from src itself — so with no faults armed the
// stream consumed is identical to a plain single run — and each retry
// after a transient failure draws from an independent split, keeping
// the parent stream untouched. The trial observer, when installed, sees
// the final outcome and how many retries it consumed.
func (m *Machine) RunCoreTrialRetry(core *Core, w workload.Profile, src *rng.Source, retries int) (TrialResult, error) {
	res, err := m.runTrial(core, &w, src)
	used := 0
	for a := 1; a <= retries && err != nil && errors.Is(err, ErrTransient); a++ {
		used = a
		res, err = m.runTrial(core, &w, src.SplitIndex("retry", a))
	}
	if err != nil && errors.Is(err, ErrTransient) && retries > 0 {
		err = fmt.Errorf("%w (persisted through %d retries)", err, retries)
	}
	if m.trialObserver != nil {
		m.trialObserver(core.Profile.Label, w.Name, used, res, err)
	}
	return res, err
}
