// Package sched is a discrete-event job scheduler over the simulated
// server: the OS-level counterpart of the paper's Sec. VII management
// scheme. Where internal/manage evaluates steady-state co-locations
// (Fig. 14), this package runs *dynamic* traces — Poisson arrivals of
// latency-critical and background jobs — under the competing policies,
// and measures what the end user of a fine-tuned ATM machine actually
// experiences: critical-job latency distributions, background
// throughput, and energy.
//
// The simulator is event-driven and exact with respect to the platform
// model: whenever the running mix changes (arrival, dispatch,
// completion), the managed chip's steady state is re-solved and every
// running job's progress rate is updated — so the frequency interference
// the paper manages (total chip power → DC drop → everyone's frequency)
// is fully dynamic here.
package sched

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/stats"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Policy selects how jobs are placed and clocked.
type Policy int

// Policies.
const (
	// PolicyStatic: ATM off, every core at the 4.2 GHz p-state, jobs
	// placed on any free core — the predictable baseline.
	PolicyStatic Policy = iota
	// PolicyUnmanaged: cores at their deployed fine-tuned ATM
	// configuration, but placement is variation-blind (lowest free
	// core index) and co-runners are never throttled.
	PolicyUnmanaged
	// PolicyManaged: the paper's scheme — critical jobs take the
	// fastest free cores, background jobs the slowest, and background
	// cores are throttled to the 4.2 GHz p-state while any critical
	// job is resident (freeing power budget for the critical cores).
	PolicyManaged
	// PolicyOndemand: ATM off, the stock ondemand OS governor drives
	// each core's p-state — busy cores at 4.2 GHz, idle cores walked
	// down the ladder. The paper's static baseline runs "the stock
	// DVFS OS governors" (Sec. VII-D); this policy is that baseline
	// with its idle-power savings included.
	PolicyOndemand
)

func (p Policy) String() string {
	switch p {
	case PolicyStatic:
		return "static"
	case PolicyUnmanaged:
		return "unmanaged-atm"
	case PolicyManaged:
		return "managed-atm"
	case PolicyOndemand:
		return "static-ondemand"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Class is a job's scheduling class.
type Class int

// Classes.
const (
	ClassCritical Class = iota
	ClassBackground
)

func (c Class) String() string {
	if c == ClassCritical {
		return "critical"
	}
	return "background"
}

// Job is one unit of work.
type Job struct {
	ID       int
	Class    Class
	Workload workload.Profile
	// ServiceSec is the job's duration on a 4.2 GHz static-margin core.
	ServiceSec float64
	// ArrivalSec is when the job enters the system.
	ArrivalSec float64
}

// JobRecord is a completed job's accounting.
type JobRecord struct {
	Job
	StartSec  float64
	FinishSec float64
	Core      string
}

// Sojourn returns the job's end-to-end latency (queue + service).
func (r JobRecord) Sojourn() float64 { return r.FinishSec - r.ArrivalSec }

// Speedup returns the achieved service speedup over the static baseline
// (service time shrinks when the core runs above 4.2 GHz).
func (r JobRecord) Speedup() float64 {
	service := r.FinishSec - r.StartSec
	if service <= 0 {
		return 0
	}
	return r.ServiceSec / service
}

// Options configures a run.
type Options struct {
	Policy Policy
	// Obs, when non-nil, counts dispatches and completions by class and
	// throttle transitions. Nil (the default) disables collection.
	Obs *obs.Registry
	// Trace, when non-nil, records per-job spans and scheduler decisions
	// on the simulated clock (microseconds of simulated time), viewable
	// in Perfetto with one track per core.
	Trace *obs.Tracer
}

// The job stream GenerateTrace draws: Poisson arrivals per class
// (jobs/s) and exponential service demands with these means at the
// static baseline (s). Typed float64, so each value derived from them
// rounds in float64 arithmetic, not at exact constant precision.
const (
	critRate       float64 = 0.08
	bgRate         float64 = 0.5
	critServiceSec float64 = 2
	bgServiceSec   float64 = 10
)

// Result is a run's aggregate outcome.
type Result struct {
	Policy    Policy
	Completed []JobRecord
	// CritLatency and BGLatency summarize sojourn times per class.
	CritLatency stats.Summary
	BGLatency   stats.Summary
	// CritSpeedup is the mean achieved service speedup of critical jobs
	// over the static baseline.
	CritSpeedup float64
	// BGThroughput is completed background jobs per second.
	BGThroughput float64
	// EnergyJ is the chip's integrated energy over the run.
	EnergyJ float64
	// EnergyPerJobJ is EnergyJ divided by all completed jobs.
	EnergyPerJobJ float64
	// MakespanSec is the time the last job finished.
	MakespanSec float64
}

// maxExpectedJobs bounds the trace GenerateTrace draws, whose expected
// size is horizonSec × (critRate + bgRate) jobs: about 70 over the
// 120 s horizon ext-scheduler runs, and past the bound from 172,414 s.
// At 1000 jobs/s over 300 s the generator once built 299,867 jobs and
// allocated about 200 MB before the simulator ran.
const maxExpectedJobs = 100_000

// GenerateTrace draws a reproducible job trace whose arrivals end at
// horizonSec. A horizon that is not positive and finite, or that
// expects more than maxExpectedJobs jobs, is an error, returned before
// any draw: a NaN or +Inf horizon would never end the arrival loop.
func GenerateTrace(horizonSec float64, src *rng.Source) ([]Job, error) {
	// Written so that NaN fails it; +Inf expects +Inf jobs.
	if !(horizonSec > 0 && horizonSec*(critRate+bgRate) <= maxExpectedJobs) {
		return nil, fmt.Errorf("sched: horizon %v s, want positive and finite with at most %d expected jobs at %v jobs/s",
			horizonSec, maxExpectedJobs, critRate+bgRate)
	}
	crit := workload.Critical()
	bg := workload.Background()
	var jobs []Job
	id := 0
	gen := func(class Class, rate, meanSvc float64, pool []workload.Profile, s *rng.Source) {
		t := 0.0
		for {
			t += s.Exp(rate)
			if t >= horizonSec {
				return
			}
			jobs = append(jobs, Job{
				ID:         id,
				Class:      class,
				Workload:   pool[s.Intn(len(pool))],
				ServiceSec: s.Exp(1 / meanSvc),
				ArrivalSec: t,
			})
			id++
		}
	}
	gen(ClassCritical, critRate, critServiceSec, crit, src.Split("crit"))
	gen(ClassBackground, bgRate, bgServiceSec, bg, src.Split("bg"))
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ArrivalSec < jobs[j].ArrivalSec })
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs, nil
}

// Simulator executes traces on a deployed machine.
type Simulator struct {
	m   *chip.Machine
	dep *tuning.Deployment

	// cores is the managed chip's cores in physical order; a run keeps
	// each running job at its core's index.
	cores []*chip.Core
	// solver solves the managed chip alone: the other chips' state
	// never reaches a job's rate.
	solver *chip.ChipSolver
	// bySpeed indexes cores fast to slow (the deployment's speed
	// ranking, restricted to the managed chip).
	bySpeed []int

	// ob is the run's observability handle set, resolved by Run from
	// Options. The zero value is the disabled plane.
	ob schedObs
}

// schedObs is the scheduler's pre-resolved handle set; all-nil (the
// zero value) disables collection.
type schedObs struct {
	tr       *obs.Tracer
	dispCrit *obs.Counter
	dispBG   *obs.Counter
	doneCrit *obs.Counter
	doneBG   *obs.Counter
	thrOn    *obs.Counter
	thrOff   *obs.Counter
}

func newSchedObs(r *obs.Registry, tr *obs.Tracer) schedObs {
	if r == nil {
		return schedObs{tr: tr}
	}
	return schedObs{
		tr:       tr,
		dispCrit: r.Counter("sched_dispatched_total", "class", "critical"),
		dispBG:   r.Counter("sched_dispatched_total", "class", "background"),
		doneCrit: r.Counter("sched_completed_total", "class", "critical"),
		doneBG:   r.Counter("sched_completed_total", "class", "background"),
		thrOn:    r.Counter("sched_throttle_transitions_total", "dir", "on"),
		thrOff:   r.Counter("sched_throttle_transitions_total", "dir", "off"),
	}
}

// usOf converts simulated seconds to the tracer's microsecond clock.
func usOf(sec float64) int64 { return int64(sec * 1e6) }

// NewSimulator wires a simulator over a machine and its deployment.
// Every job runs on a core of the chip chipLabel names; "" selects P0,
// the chip the paper co-locates on.
func NewSimulator(m *chip.Machine, dep *tuning.Deployment, chipLabel string) (*Simulator, error) {
	if chipLabel == "" {
		chipLabel = "P0"
	}
	s := &Simulator{m: m, dep: dep}
	for _, ch := range m.Chips {
		if ch.Profile.Label == chipLabel {
			s.cores, s.solver = ch.Cores, m.NewChipSolver(ch)
		}
	}
	for _, label := range dep.FastestCores() {
		if i := slices.IndexFunc(s.cores, func(c *chip.Core) bool { return c.Profile.Label == label }); i >= 0 {
			s.bySpeed = append(s.bySpeed, i)
		}
	}
	if len(s.bySpeed) == 0 {
		return nil, fmt.Errorf("sched: chip %q has no deployed cores", chipLabel)
	}
	return s, nil
}

// active tracks a running job.
type active struct {
	job       Job
	remaining float64 // service-seconds at baseline still to do
	start     float64
}

// Run executes the trace under the options' policy and returns the
// aggregate result. The machine is reset afterwards.
func (s *Simulator) Run(trace []Job, o Options) (Result, error) {
	s.ob = newSchedObs(o.Obs, o.Trace)
	defer s.m.ResetAll()
	s.m.ResetAll()

	// Normalize the idle machine to the policy's baseline clocking:
	// the static policies must not leave unused cores in default ATM.
	if o.Policy == PolicyStatic || o.Policy == PolicyOndemand {
		for _, core := range s.cores {
			core.SetMode(chip.ModeStatic)
			if err := core.SetPState(chip.PStateMax); err != nil {
				return Result{}, err
			}
			if err := s.idleCore(core, o.Policy); err != nil {
				return Result{}, err
			}
		}
	}

	res := Result{Policy: o.Policy}
	var (
		queueCrit, queueBG []Job
		running            = make([]*active, len(s.cores)) // by core index; nil when free
		rate               = make([]float64, len(s.cores))
		now                float64
		nextJob            int
		energy             float64
	)
	base := float64(silicon.FStatic)

	// rates recomputes every running job's progress rate from the
	// chip's solved steady state into rate (a free core's entry is
	// stale and never read) and returns the chip's power.
	rates := func() (float64, error) {
		power, err := s.solver.Solve()
		if err != nil {
			return 0, err
		}
		for i, a := range running {
			if a != nil {
				rate[i] = a.job.Workload.RelPerf(float64(s.solver.Freq(i)), base)
			}
		}
		return float64(power), nil
	}

	dispatch := func() error {
		for len(queueCrit)+len(queueBG) > 0 {
			var job Job
			var isCrit bool
			switch {
			case len(queueCrit) > 0:
				job, isCrit = queueCrit[0], true
			default:
				job, isCrit = queueBG[0], false
			}
			core := s.pickCore(running, isCrit, o.Policy)
			if core < 0 {
				// pickCore scans the same cores for either class, so
				// no queued job of the other class fits either.
				break
			}
			if isCrit {
				queueCrit = queueCrit[1:]
			} else {
				queueBG = queueBG[1:]
			}
			running[core] = &active{job: job, remaining: job.ServiceSec, start: now}
			if isCrit {
				s.ob.dispCrit.Inc()
			} else {
				s.ob.dispBG.Inc()
			}
			if s.ob.tr != nil {
				s.ob.tr.Instant("sched", "dispatch", s.cores[core].Profile.Label,
					"job", strconv.Itoa(job.ID), "class", job.Class.String())
			}
			if err := s.configureCore(core, job, o.Policy); err != nil {
				return err
			}
		}
		// Reconcile background throttling against the (possibly changed)
		// critical residency.
		return s.applyThrottling(running, o.Policy)
	}

	for {
		power, err := rates()
		if err != nil {
			return Result{}, err
		}

		// Next event: arrival or earliest completion. A tie goes to the
		// first core in chip order.
		nextArrival := -1.0
		if nextJob < len(trace) {
			nextArrival = trace[nextJob].ArrivalSec
		}
		nextDone, doneCore := -1.0, -1
		for i, a := range running {
			if a == nil || rate[i] <= 0 {
				continue
			}
			t := now + a.remaining/rate[i]
			if nextDone < 0 || t < nextDone {
				nextDone, doneCore = t, i
			}
		}
		if nextArrival < 0 && nextDone < 0 {
			break // drained
		}
		var next float64
		arrivalEvent := false
		switch {
		case nextDone < 0 || (nextArrival >= 0 && nextArrival < nextDone):
			next, arrivalEvent = nextArrival, true
		default:
			next = nextDone
		}

		// Advance time: progress work and integrate energy.
		dt := next - now
		if dt < 0 {
			dt = 0
		}
		for i, a := range running {
			if a == nil {
				continue
			}
			a.remaining -= rate[i] * dt
			if a.remaining < 1e-12 {
				a.remaining = 0
			}
		}
		energy += power * dt
		now = next
		s.ob.tr.SetTimeUS(usOf(now))

		if arrivalEvent {
			job := trace[nextJob]
			nextJob++
			if job.Class == ClassCritical {
				queueCrit = append(queueCrit, job)
			} else {
				queueBG = append(queueBG, job)
			}
			if s.ob.tr != nil {
				s.ob.tr.Instant("sched", "arrival", "queue:"+job.Class.String(),
					"job", strconv.Itoa(job.ID))
			}
		} else {
			a, core := running[doneCore], s.cores[doneCore]
			running[doneCore] = nil
			res.Completed = append(res.Completed, JobRecord{
				Job: a.job, StartSec: a.start, FinishSec: now, Core: core.Profile.Label,
			})
			if a.job.Class == ClassCritical {
				s.ob.doneCrit.Inc()
			} else {
				s.ob.doneBG.Inc()
			}
			if s.ob.tr != nil {
				// The job's whole residency as one exact-time span on the
				// core's track.
				s.ob.tr.Complete("sched", a.job.Workload.Name, core.Profile.Label,
					usOf(a.start), usOf(now)-usOf(a.start),
					"job", strconv.Itoa(a.job.ID), "class", a.job.Class.String())
			}
			// Freed core returns to idle until redispatched.
			if err := s.idleCore(core, o.Policy); err != nil {
				return Result{}, err
			}
		}
		if err := dispatch(); err != nil {
			return Result{}, err
		}
	}

	res.MakespanSec = now
	res.EnergyJ = energy
	s.finalize(&res)
	return res, nil
}

// finalize computes the aggregate metrics.
func (s *Simulator) finalize(res *Result) {
	var critSo, bgSo []float64
	var speedSum float64
	var critN, bgN int
	for _, r := range res.Completed {
		if r.Class == ClassCritical {
			critSo = append(critSo, r.Sojourn())
			speedSum += r.Speedup()
			critN++
		} else {
			bgSo = append(bgSo, r.Sojourn())
			bgN++
		}
	}
	res.CritLatency = stats.Summarize(critSo)
	res.BGLatency = stats.Summarize(bgSo)
	if critN > 0 {
		res.CritSpeedup = speedSum / float64(critN)
	}
	if res.MakespanSec > 0 {
		res.BGThroughput = float64(bgN) / res.MakespanSec
	}
	if n := len(res.Completed); n > 0 {
		res.EnergyPerJobJ = res.EnergyJ / float64(n)
	}
}
