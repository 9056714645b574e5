package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro"
	"repro/internal/fsp"
	"repro/internal/lifetime"
	"repro/internal/rng"
	"repro/internal/tuning"
	"repro/internal/workload"
)

// Replay sizes per sampled lifetime-sentinel unit: margins and trial
// timings at ageSegments points of the horizon.
const (
	ageSegments = 8
	marginCalls = 32
	trialRounds = 32
)

// productionMix is the work lifetime.Run gives core i during work
// hours: productionMix[i%4]. No result field exposes it, so unlike the
// replay's other copied settings it goes unchecked.
var productionMix = []workload.Profile{workload.X264, workload.Deepsjeng, workload.MCF, workload.Omnetpp}

// lifetimeSuite is lifetime-sentinel's inputs: one generated server and
// one simulation seed per unit.
type lifetimeSuite struct {
	profiles []*atm.SiliconProfile
	opts     []atm.LifetimeOptions
}

func setupLifetime(seed uint64, units int, _ *tracer) (suite, error) {
	s := &lifetimeSuite{profiles: make([]*atm.SiliconProfile, units), opts: make([]atm.LifetimeOptions, units)}
	for i := range s.profiles {
		p, err := atm.GenerateSilicon(unitSeed(seed, "lifetime/silicon", i), atm.GenerateOptions{})
		if err != nil {
			return nil, err
		}
		s.profiles[i] = p
		// The default horizon (3 years) with the sentinel on.
		s.opts[i] = atm.LifetimeOptions{Seed: unitSeed(seed, "lifetime/seed", i)}
	}
	return s, nil
}

func (s *lifetimeSuite) run(i int, t *tracer) (output, error) {
	sp := t.begin("atm.SimulateLifetime")
	res, err := atm.SimulateLifetime(s.profiles[i], s.opts[i])
	t.end(sp, 1)
	return &lifetimeOut{res: res}, err
}

type lifetimeOut struct{ res *atm.LifetimeResult }

func (o *lifetimeOut) check() error {
	r := o.res
	if r.Epochs == 0 || len(r.Cores) != serverCores {
		return fmt.Errorf("%d epochs over %d cores", r.Epochs, len(r.Cores))
	}
	sum := 0
	for _, c := range r.Cores {
		sum += c.Failures
	}
	if sum != r.Failures {
		return fmt.Errorf("per-core failures sum to %d, result counts %d", sum, r.Failures)
	}
	if r.Safe != (r.Failures == 0) {
		return fmt.Errorf("verdict %s with %d failures", r.Verdict(), r.Failures)
	}
	return nil
}

func (o *lifetimeOut) canonical() ([]byte, error) { return json.Marshal(o.res) }

func (o *lifetimeOut) count(c counts) {
	c["lifetime.epochs"] += int64(o.res.Epochs)
	c["lifetime.trials"] += int64(o.res.Trials)
	c["lifetime.retunes"] += int64(o.res.Retunes)
	c["lifetime.failures"] += int64(o.res.Failures)
}

// replay rebuilds unit i's server and times, in the order lifetime.Run
// uses them: the day-one stress tests, every epoch's drift overlay and,
// at ageSegments points of the overlay's walk, the operator margins read
// over a loopback session and production trials on the aging machine.
// The day-one limits must equal the unit's start
// reductions, and the replayed work hours the unit's trial count, so the
// replay runs the unit's tuning options and work schedule.
func (s *lifetimeSuite) replay(i int, o output, _, plain unitStats, t *tracer) (layerSample, error) {
	res := o.(*lifetimeOut).res
	m, err := atm.NewMachine(s.profiles[i].Clone())
	if err != nil {
		return layerSample{}, err
	}
	cores := m.AllCores()
	root := rng.New(s.opts[i].Seed)
	// lifetime.Run's tuning defaults and day-one seed path.
	tune := tuning.Options{Passes: 3, RunsPerConfig: 4, Battery: workload.TestTimeSuite(), TrialRetries: 2}
	deploySrc := root.Split("lifetime/deploy")
	stressNS, err := t.timed("tuning.StressTestCore", len(cores), func() error {
		for k, c := range cores {
			lim, err := tuning.StressTestCore(m, c.Profile.Label, tune, deploySrc.SplitIndex("core", k))
			if err != nil {
				return err
			}
			if want := res.Cores[k].StartReduction; lim != want {
				return fmt.Errorf("core %s: replayed day-one limit %d, the unit deployed %d", c.Profile.Label, lim, want)
			}
			if err := m.ProgramCPM(c.Profile.Label, lim); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return layerSample{}, err
	}

	// Cores work 08:00–20:00 and take one trial per working epoch until
	// the sentinel parks or gates them.
	epochH := float64(res.Years) * lifetime.HoursPerYear / float64(res.Epochs)
	ov := lifetime.NewOverlay(m, lifetime.Params{}, float64(res.Years), root.Split("lifetime/drift"))
	active := make([]bool, len(cores))
	workEpochs := 0
	var advanceNS float64
	advance := func(from, to int) {
		if to <= from {
			return
		}
		ns, _ := t.timed("lifetime.Overlay.Advance", to-from, func() error {
			for e := from; e < to; e++ {
				hour := math.Mod(float64(e+1)*epochH, 24)
				for k := range active {
					active[k] = hour > 8 && hour <= 20
				}
				if active[0] {
					workEpochs++
				}
				ov.Advance(epochH, active)
			}
			return nil
		})
		advanceNS += ns * float64(to-from)
	}

	// The unit reads margins and runs trials at every age of its
	// horizon, so the replay times them in the middle of each of
	// ageSegments stretches of the overlay's walk.
	ctl := fsp.NewController(m)
	cli := fsp.NewClient(fsp.NewLoopback(fsp.NewSession(ctl)), fsp.ClientOptions{})
	src := root.Split("atmbench/replay")
	var marginsNS, trialNS float64
	for seg := 0; seg < ageSegments; seg++ {
		advance(seg*res.Epochs/ageSegments, (2*seg+1)*res.Epochs/(2*ageSegments))
		ns, err := t.timedReps("fsp.Client.Margins", marginCalls, func() error {
			for k := 0; k < marginCalls; k++ {
				ctl.Invalidate()
				if _, err := cli.Margins(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return layerSample{}, err
		}
		marginsNS += ns / ageSegments
		ns, err = t.timedReps("chip.Machine.RunTrial", trialRounds*len(cores), func() error {
			for k := 0; k < trialRounds; k++ {
				for ci, c := range cores {
					if _, err := m.RunTrial(c.Profile.Label, productionMix[ci%len(productionMix)], src); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			return layerSample{}, err
		}
		trialNS += ns / ageSegments
		advance((2*seg+1)*res.Epochs/(2*ageSegments), (seg+1)*res.Epochs/ageSegments)
	}
	if trials := workEpochs * len(cores); trials < res.Trials || (res.Statics+res.Quarantines == 0 && trials != res.Trials) {
		return layerSample{}, fmt.Errorf("replayed work hours give %d trials, the unit ran %d", trials, res.Trials)
	}

	epochs := float64(res.Epochs)
	advanceNS /= epochs
	return layerSample{
		metrics: map[string]float64{
			"fsp.margins_us":            marginsNS / 1e3,
			"lifetime.advance_us":       advanceNS / 1e3,
			"tuning.stress_ms":          stressNS / 1e6,
			"lifetime.trial_ns":         trialNS,
			"lifetime.allocs_per_epoch": float64(plain.allocs) / epochs,
		},
		estimates: []metric{
			// The sentinel reads margins every epoch, plus once at
			// deployment and once at the horizon.
			{"fsp.Client.Margins", marginsNS * (epochs + 2), "ns"},
			{"lifetime.Overlay.Advance", advanceNS * epochs, "ns"},
			{"tuning.StressTestCore", stressNS * float64(len(cores)+res.Retunes), "ns"},
			{"chip.Machine.RunTrial", trialNS * float64(res.Trials), "ns"},
		},
	}, nil
}
