package perf

import (
	"repro/internal/chip"
	"repro/internal/dc"
	"repro/internal/guard"
	"repro/internal/manage"
	"repro/internal/silicon"
)

// dcStages benches the datacenter plane's //atm:hotpath kernels: one
// hierarchical budget step (water-fill apportionment plus the Chen
// integral update) over the acceptance topology, and one scheduler
// placement round over a 64-chip rack whose closed breakers run on a
// sim tick clock, as a live node's do in dc.Run. Both are
// single-goroutine and alloc-stable — the budget loop and placement
// scan run every sim tick, so their allocs/op must stay at zero. The
// intake's per-core Eq. 1 calibration on a generated single-chip node
// pins its allocs/op too: its ladder allocates once per chip and its
// chip solves not at all, so an allocation added to a rung or a solve
// trips the gate (manage's tests pin how many states it solves).
// Fixtures are built outside Run so the setup cost never leaks into the
// per-op counts.
func dcStages(quick bool) ([]Stage, error) {
	const chips = 2 * 4 * 8
	idle := make([]float64, chips)
	req := make([]float64, chips)
	meas := make([]float64, chips)
	for i := range idle {
		idle[i] = 50
		req[i] = 80 + float64(i%30)
		meas[i] = 55 + float64(i%20)
	}
	tree := dc.NewBudgetTree(2, 4, 8, 2000, 600, 150, 0.5, idle)

	var clock int64 // the sim tick; placement rounds do not advance it
	nodes := make([]dc.PlacerChip, 64)
	for i := range nodes {
		id := dc.NodeID(0, 0, i)
		nodes[i] = dc.PlacerChip{ID: id, IdleW: 50, SpanW: 12, Breaker: guard.NewBreaker(guard.BreakerOptions{
			Name: "dc/" + id, FailureThreshold: 1, Now: func() int64 { return clock },
		})}
		nodes[i].Cores = make([]dc.PlacerCore, 8)
		for j := range nodes[i].Cores {
			nodes[i].Cores[j] = dc.PlacerCore{
				Label: "C", Slope: -2.5, Intercept: 4000 + float64(i%40),
			}
		}
	}
	placer := dc.NewPlacer(nodes)
	allow := make([]float64, len(nodes))
	for i := range allow {
		allow[i] = 500
	}

	opsOpts := dc.Options{Racks: 2, ChassisPerRack: 4, ChipsPerChassis: 8, Ticks: 64}

	prof, err := silicon.Generate(1, silicon.GenerateOptions{Chips: 1})
	if err != nil {
		return nil, err
	}
	node, err := chip.New(prof, chip.Options{})
	if err != nil {
		return nil, err
	}
	calCore := node.AllCores()[0].Profile.Label

	return []Stage{
		{
			Name: "dc_ops", Group: "dc", AllocStable: true,
			Note:  "ops profile parse + seeded fault-schedule draw, 2×4×8 topology over 64 ticks (dc.DrawOps)",
			Iters: pick(quick, 2_000, 50_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					p, err := dc.ParseOpsProfile("ops-storm,rack-brownouts=1")
					if err != nil {
						return 0, err
					}
					sched := dc.DrawOps(p, uint64(i%16)+1, opsOpts, nil)
					sinkF = float64(len(sched))
				}
				return int64(iters), nil
			},
		},
		{
			Name: "dc_budget_step", Group: "dc", AllocStable: true,
			Note:  "rack→chassis→chip water-fill + integral update, 2×4×8 topology (dc.BudgetTree)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					tree.Apportion(req)
					tree.Regulate(meas)
					sinkF = tree.Allowance(i % chips)
				}
				return int64(iters), nil
			},
		},
		{
			Name: "dc_place", Group: "dc", AllocStable: true,
			Note:  "Eq. 1 placement scan + release over 64 chips × 8 cores behind closed breakers (dc.Placer)",
			Iters: pick(quick, 10_000, 200_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					ci, cj, pred, ok := placer.Place(0.7, allow)
					if ok {
						sinkF = pred
						placer.Release(ci, cj, 0.7)
					}
				}
				return int64(iters), nil
			},
		},
		{
			Name: "manage_calibrate", Group: "dc", AllocStable: true,
			Note:  "one core's Eq. 1 calibration ladder on a generated single-chip node (manage.CalibrateFreqPredictor)",
			Iters: pick(quick, 200, 2_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					fp, err := manage.CalibrateFreqPredictor(node, calCore)
					if err != nil {
						return 0, err
					}
					sinkF = fp.Fit.Slope
				}
				return int64(iters), nil
			},
		},
	}, nil
}
