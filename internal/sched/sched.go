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
// completion), the machine's steady state is re-solved and every running
// job's progress rate is updated — so the frequency interference the
// paper manages (total chip power → DC drop → everyone's frequency) is
// fully dynamic here.
package sched

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/chip"
	"repro/internal/obs"
	"repro/internal/rng"
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
	// HorizonSec ends the arrival process; the run drains afterwards.
	// Default 300 s.
	HorizonSec float64
	// CritRate and BGRate are Poisson arrival rates (jobs/s).
	// Defaults 0.08 and 0.5.
	CritRate, BGRate float64
	// CritServiceSec and BGServiceSec are mean service demands at the
	// static baseline (exponential). Defaults 2 s and 10 s.
	CritServiceSec, BGServiceSec float64
	// Seed drives arrivals and service draws. Default 1.
	Seed uint64
	// Obs, when non-nil, counts dispatches and completions by class and
	// throttle transitions. Nil (the default) disables collection.
	Obs *obs.Registry
	// Trace, when non-nil, records per-job spans and scheduler decisions
	// on the simulated clock (microseconds of simulated time), viewable
	// in Perfetto with one track per core.
	Trace *obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.HorizonSec == 0 {
		o.HorizonSec = 300
	}
	if o.CritRate == 0 {
		o.CritRate = 0.08
	}
	if o.BGRate == 0 {
		o.BGRate = 0.5
	}
	if o.CritServiceSec == 0 {
		o.CritServiceSec = 2
	}
	if o.BGServiceSec == 0 {
		o.BGServiceSec = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

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
// size is HorizonSec × (CritRate + BGRate) jobs. The default run
// expects 174; at 1000 jobs/s over 300 s the generator built 299,867
// jobs and allocated about 200 MB before the simulator ran.
const maxExpectedJobs = 100_000

// Validate rejects an arrival or service setting under which the trace
// generator would never finish, would panic or would build a trace
// above maxExpectedJobs: a horizon, arrival rate or mean service time
// that is negative, NaN or infinite, or an expected job count over the
// bound once the defaults apply. A NaN rate makes every arrival time
// NaN and a +Inf rate every gap 0, so with either, or with a NaN or
// +Inf horizon, arrivals never pass the horizon. Zero still selects
// each default.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"HorizonSec", o.HorizonSec}, {"CritRate", o.CritRate}, {"BGRate", o.BGRate},
		{"CritServiceSec", o.CritServiceSec}, {"BGServiceSec", o.BGServiceSec},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("sched: %s %v is not finite and non-negative", f.name, f.v)
		}
	}
	d := o.withDefaults()
	if n := d.HorizonSec * (d.CritRate + d.BGRate); n > maxExpectedJobs {
		return fmt.Errorf("sched: HorizonSec %v × (CritRate %v + BGRate %v) expects %.0f jobs, above the %d-job limit",
			d.HorizonSec, d.CritRate, d.BGRate, n, maxExpectedJobs)
	}
	return nil
}

// GenerateTrace draws a reproducible job trace from the options. It
// validates them first and draws nothing when they are invalid.
func GenerateTrace(o Options, src *rng.Source) ([]Job, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	crit := workload.Critical()
	bg := workload.Background()
	var jobs []Job
	id := 0
	gen := func(class Class, rate, meanSvc float64, pool []workload.Profile, s *rng.Source) {
		t := 0.0
		for {
			t += s.Exp(rate)
			if t >= o.HorizonSec {
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
	gen(ClassCritical, o.CritRate, o.CritServiceSec, crit, src.Split("crit"))
	gen(ClassBackground, o.BGRate, o.BGServiceSec, bg, src.Split("bg"))
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].ArrivalSec < jobs[j].ArrivalSec })
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs, nil
}

// Simulator executes traces on a deployed machine.
type Simulator struct {
	m     *chip.Machine
	dep   *tuning.Deployment
	chipL string

	// fast-to-slow core order (deployment speed ranking, restricted to
	// the managed chip).
	bySpeed []string

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
	s := &Simulator{m: m, dep: dep, chipL: chipLabel}
	for _, label := range dep.FastestCores() {
		if core, err := m.Core(label); err == nil {
			if ch, err := m.ChipOf(core.Profile.Label); err == nil && ch.Profile.Label == chipLabel {
				s.bySpeed = append(s.bySpeed, label)
			}
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
	core      string
}

// Run executes the trace under the options' policy and returns the
// aggregate result. The machine is reset afterwards.
func (s *Simulator) Run(trace []Job, o Options) (Result, error) {
	o = o.withDefaults()
	s.ob = newSchedObs(o.Obs, o.Trace)
	defer s.m.ResetAll()
	s.m.ResetAll()

	// Normalize the idle machine to the policy's baseline clocking:
	// the static policies must not leave unused cores in default ATM.
	if o.Policy == PolicyStatic || o.Policy == PolicyOndemand {
		for _, label := range s.chipCores() {
			core, err := s.m.Core(label)
			if err != nil {
				return Result{}, err
			}
			core.SetMode(chip.ModeStatic)
			if err := core.SetPState(chip.PStateMax); err != nil {
				return Result{}, err
			}
			if err := s.idleCore(label, o.Policy); err != nil {
				return Result{}, err
			}
		}
	}

	res := Result{Policy: o.Policy}
	var (
		queueCrit, queueBG []Job
		running            = map[string]*active{} // core label → job
		now                float64
		nextJob            int
		energy             float64
	)
	base := float64(s.m.Profile().Params().FStatic)

	// rates recomputes every running job's progress rate from the
	// solved steady state; returns rate per core and chip power.
	rates := func() (map[string]float64, float64, error) {
		st, err := s.m.Solve()
		if err != nil {
			return nil, 0, err
		}
		cs, err := st.ChipState(s.chipL)
		if err != nil {
			return nil, 0, err
		}
		out := map[string]float64{}
		for _, c := range cs.Cores {
			if a, ok := running[c.Label]; ok {
				out[c.Label] = a.job.Workload.RelPerf(float64(c.Freq), base)
			}
		}
		return out, float64(cs.Power), nil
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
			if core == "" {
				if isCrit && len(queueBG) > 0 {
					// Critical head blocked; try a background job on
					// the remaining cores before giving up.
					job, isCrit = queueBG[0], false
					core = s.pickCore(running, false, o.Policy)
					if core == "" {
						break
					}
					queueBG = queueBG[1:]
				} else {
					break
				}
			} else if isCrit {
				queueCrit = queueCrit[1:]
			} else {
				queueBG = queueBG[1:]
			}
			running[core] = &active{job: job, remaining: job.ServiceSec, start: now, core: core}
			if isCrit {
				s.ob.dispCrit.Inc()
			} else {
				s.ob.dispBG.Inc()
			}
			if s.ob.tr != nil {
				s.ob.tr.Instant("sched", "dispatch", core,
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
		rate, power, err := rates()
		if err != nil {
			return Result{}, err
		}

		// Next event: arrival or earliest completion.
		nextArrival := -1.0
		if nextJob < len(trace) {
			nextArrival = trace[nextJob].ArrivalSec
		}
		nextDone, doneCore := -1.0, ""
		for label, a := range running {
			r := rate[label]
			if r <= 0 {
				continue
			}
			t := now + a.remaining/r
			if nextDone < 0 || t < nextDone {
				nextDone, doneCore = t, label
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
		for label, a := range running {
			a.remaining -= rate[label] * dt
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
			a := running[doneCore]
			delete(running, doneCore)
			res.Completed = append(res.Completed, JobRecord{
				Job: a.job, StartSec: a.start, FinishSec: now, Core: doneCore,
			})
			if a.job.Class == ClassCritical {
				s.ob.doneCrit.Inc()
			} else {
				s.ob.doneBG.Inc()
			}
			if s.ob.tr != nil {
				// The job's whole residency as one exact-time span on the
				// core's track.
				s.ob.tr.Complete("sched", a.job.Workload.Name, doneCore,
					usOf(a.start), usOf(now)-usOf(a.start),
					"job", strconv.Itoa(a.job.ID), "class", a.job.Class.String())
			}
			// Freed core returns to idle until redispatched.
			if err := s.idleCore(doneCore, o.Policy); err != nil {
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
