package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"repro"
	"repro/internal/guard"
	"repro/internal/manage"
)

// The intake's quick pass (platform.ProvisionOptions defaults), which
// the tuning.Deploy replay repeats; the replay checks its limits against
// the unit's intake.
const (
	intakePasses        = 1
	intakeRunsPerConfig = 2
)

// Replay sizes per sampled dc-overload unit.
const (
	solveCalls = 8
	allowCalls = 100000
)

// dcSuite is dc-overload's inputs: one campaign's options per unit.
type dcSuite struct {
	opts []atm.DCOptions
}

func setupDC(seed uint64, units int, _ *tracer) (suite, error) {
	s := &dcSuite{opts: make([]atm.DCOptions, units)}
	for i := range s.opts {
		s.opts[i] = atm.DCOptions{
			Racks:           1,
			ChassisPerRack:  2,
			ChipsPerChassis: 4,
			Workers:         1,
			Seed:            unitSeed(seed, "dc/seed", i),
			SiliconStart:    unitSeed(seed, "dc/silicon", i),
			Tenants:         512,
			Ticks:           2048,
			OpsFaultProfile: "ops-storm",
			OpsFaultSeed:    unitSeed(seed, "dc/ops", i),
		}
	}
	return s, nil
}

func (s *dcSuite) run(i int, t *tracer) (output, error) {
	sp := t.begin("atm.RunDatacenter")
	res, err := atm.RunDatacenter(s.opts[i])
	t.end(sp, 1)
	return &dcOut{res: res}, err
}

type dcOut struct{ res *atm.DCResult }

// check holds the budget loop to its cap invariant and the tenant
// records to the ops summary. An UNSAFE verdict (shed tenants) is a
// simulated outcome of the overload, not a failure.
func (o *dcOut) check() error {
	r := o.res
	if r.Budget.Violations != 0 {
		return fmt.Errorf("%d budget cap violations", r.Budget.Violations)
	}
	if r.Ops == nil {
		return fmt.Errorf("operational fault plane is off")
	}
	if len(r.Tenants) != r.Topology.Tenants {
		return fmt.Errorf("%d tenant records for %d tenants", len(r.Tenants), r.Topology.Tenants)
	}
	migrations, shed := 0, 0
	for _, t := range r.Tenants {
		migrations += t.Migrations
		if t.Shed {
			shed++
		}
	}
	if migrations != r.Ops.Migrations || shed != r.Ops.Shed {
		return fmt.Errorf("tenants record %d migrations and %d shed, ops summary %d and %d",
			migrations, shed, r.Ops.Migrations, r.Ops.Shed)
	}
	return nil
}

func (o *dcOut) canonical() ([]byte, error) {
	var b bytes.Buffer
	err := o.res.WriteJSON(&b)
	return b.Bytes(), err
}

func (o *dcOut) count(c counts) {
	r := o.res
	c["dc.place_attempts"] += int64(r.Placement.Placed + r.Placement.Deferrals)
	c["dc.placed"] += int64(r.Placement.Placed)
	c["dc.migrations"] += int64(r.Ops.Migrations)
	c["dc.shed"] += int64(r.Ops.Shed)
	c["dc.violations"] += int64(r.Budget.Violations)
}

// replay times, for unit i's options, the intake alone and every node's
// provisioning back to back, alternately replayReps times, then each
// node's provisioning parts, then a closed breaker's Allow. The replayed
// provisions must reproduce the unit's chip summaries, and the
// tuning.Deploy replay with the intake's quick pass must reproduce both
// the unit's speed differentials and the provisioned limits, so the
// replays time the work the unit did.
func (s *dcSuite) replay(i int, o output, _, plain unitStats, t *tracer) (layerSample, error) {
	res := o.(*dcOut).res
	opts := s.opts[i]
	jobs := atm.DatacenterCampaign(opts).Jobs
	if len(jobs) != len(res.Chips) {
		return layerSample{}, fmt.Errorf("%d intake jobs for %d chip summaries", len(jobs), len(res.Chips))
	}
	intake := make([]float64, replayReps)
	provTotal := make([]float64, replayReps)
	overhead := make([]float64, replayReps)
	servers := make([]*atm.PlatformServer, len(jobs))
	provs := make([]*atm.Provision, len(jobs))
	for r := range intake {
		ns, err := t.timed("fleet.Run(dc.Campaign)", 1, func() error {
			_, err := atm.RunCampaign(atm.DatacenterCampaign(opts), atm.FleetOptions{Workers: opts.Workers})
			return err
		})
		if err != nil {
			return layerSample{}, err
		}
		intake[r] = ns
		for k, j := range jobs {
			ns, err := t.timed("platform.Build+ProvisionServer", 1, func() error {
				var err error
				if servers[k], err = atm.BuildServer(atm.PlatformSpec{SiliconSeed: j.SiliconSeed, Chips: j.Chips}); err != nil {
					return err
				}
				provs[k], err = atm.ProvisionServer(servers[k], atm.ProvisionOptions{Seed: j.Seed, Rollback: j.Rollback})
				return err
			})
			if err != nil {
				return layerSample{}, err
			}
			provTotal[r] += ns
		}
		overhead[r] = intake[r] - provTotal[r]
	}

	var deployNS, calNS, solveNS float64
	for k, j := range jobs {
		sum, p := res.Chips[k], provs[k]
		if sum.Err != "" || sum.SiliconSeed != j.SiliconSeed || len(p.Chips) != 1 ||
			!identical(p.Chips[0].IdleW, sum.IdleW) || !identical(p.Chips[0].LoadedW, sum.LoadedW) ||
			!identical(p.SpeedDiffMHz, sum.SpeedDiffMHz) {
			return layerSample{}, fmt.Errorf("node %s: replayed provision does not match the unit's intake", sum.Node)
		}
		m := servers[k].Machine
		var dep *atm.Deployment
		ns, err := t.timedReps("tuning.Deploy", 1, func() error {
			var err error
			dep, err = atm.Deploy(m, atm.DeployOptions{Seed: j.Seed, Rollback: j.Rollback,
				Passes: intakePasses, RunsPerConfig: intakeRunsPerConfig})
			return err
		})
		if err != nil {
			return layerSample{}, err
		}
		if err := matchQuickPass(dep, p, sum.SpeedDiffMHz); err != nil {
			return layerSample{}, fmt.Errorf("node %s: %w", sum.Node, err)
		}
		deployNS += ns
		cores := m.AllCores()
		ns, err = t.timedReps("manage.CalibrateFreqPredictor", len(cores), func() error {
			for _, c := range cores {
				if _, err := manage.CalibrateFreqPredictor(m, c.Profile.Label); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return layerSample{}, err
		}
		calNS += ns
		ns, err = t.timedReps("chip.Machine.Solve", solveCalls, func() error {
			for k := 0; k < solveCalls; k++ {
				if _, err := m.Solve(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return layerSample{}, err
		}
		solveNS += ns
	}

	// A live node's breaker in the ops plane: closed, on the sim clock.
	b := guard.NewBreaker(guard.BreakerOptions{Name: "atmbench", FailureThreshold: 1, Now: func() int64 { return 0 }})
	allowNS, err := t.timedReps("guard.Breaker.Allow", allowCalls, func() error {
		for k := 0; k < allowCalls; k++ {
			if !b.Allow() {
				return fmt.Errorf("closed breaker rejected a call")
			}
		}
		return nil
	})
	if err != nil {
		return layerSample{}, err
	}

	// The fastest repetitions, as timedReps takes; the fleet's own cost
	// is the median of the paired differences.
	nodes := float64(len(jobs))
	attempts := float64(res.Placement.Placed + res.Placement.Deferrals)
	intakeNS := slices.Min(intake)
	simNS := float64(plain.ns) - intakeNS
	return layerSample{
		metrics: map[string]float64{
			"dc.intake_ms":            intakeNS / 1e6,
			"dc.sim_ms":               simNS / 1e6,
			"platform.provision_ms":   slices.Min(provTotal) / nodes / 1e6,
			"tuning.deploy_ms":        deployNS / nodes / 1e6,
			"manage.calibrate_ms":     calNS / nodes / 1e6,
			"chip.solve_us":           solveNS / nodes / 1e3,
			"fleet.overhead_ms":       median(overhead) / 1e6,
			"dc.ns_per_place_attempt": simNS / attempts,
			"guard.allow_ns":          allowNS,
		},
		// The fleet's own cost is a fraction of a percent of the intake,
		// inside the noise of a difference of two timings, so the intake
		// is one estimate, provisioning included.
		estimates: []metric{
			{"fleet.Run(dc.Campaign)", intakeNS, "ns"},
			// Place consults every chip's breaker on every attempt.
			{"guard.Breaker.Allow", allowNS * attempts * float64(len(res.Chips)), "ns"},
		},
	}, nil
}

// matchQuickPass checks a replayed intake deployment against what the
// unit's intake produced: its speed differential against the unit's
// chip summary, its per-core limits against the replayed provision.
func matchQuickPass(dep *atm.Deployment, p *atm.Provision, speedDiffMHz float64) error {
	if !identical(dep.SpeedDifferentialMHz(), speedDiffMHz) {
		return fmt.Errorf("quick-pass speed differential %v MHz, the unit's intake %v MHz", dep.SpeedDifferentialMHz(), speedDiffMHz)
	}
	cores := p.Chips[0].Cores
	if len(dep.Configs) != len(cores) {
		return fmt.Errorf("quick pass deployed %d cores, the provision %d", len(dep.Configs), len(cores))
	}
	for k, c := range dep.Configs {
		if c.Core != cores[k].Core || c.StressLimit != cores[k].StressLimit || c.Reduction != cores[k].Reduction {
			return fmt.Errorf("quick pass gives core %s stress limit %d, the provision %s %d", c.Core, c.StressLimit, cores[k].Core, cores[k].StressLimit)
		}
	}
	return nil
}

// identical reports whether two floats have the same bits: a replay of
// the unit's deterministic computation must reproduce its values
// exactly.
func identical(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
