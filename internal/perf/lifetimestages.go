package perf

import (
	"repro/internal/chip"
	"repro/internal/fsp"
	"repro/internal/lifetime"
	"repro/internal/rng"
)

// lifetimeStages benches the lifetime plane's two per-epoch costs
// beside its trials: the sentinel's margin poll, one margins round trip
// through the operator client over an in-process loopback session, and
// one drift overlay epoch, which ages and refreshes every core profile.
// Both run once per simulated epoch and are single-goroutine, so both
// gate their allocs/op; the overlay epoch must stay at zero. Fixtures
// are built outside Run, like the dc stages'.
func lifetimeStages(quick bool) []Stage {
	ctl := fsp.NewController(chip.NewReference())
	cli := fsp.NewClient(fsp.NewLoopback(fsp.NewSession(ctl)), fsp.ClientOptions{})

	m := chip.NewReference()
	ov := lifetime.NewOverlay(m, lifetime.Params{}, 3, rng.New(1).Split("lifetime/drift"))
	active := make([]bool, len(m.AllCores()))
	for i := range active {
		active[i] = true
	}

	return []Stage{
		{
			Name: "fsp_margins", Group: "lifetime", AllocStable: true,
			Note:  "the sentinel's poll: every reference core's margin over a loopback session (fsp.Client.Margins)",
			Iters: pick(quick, 2_000, 50_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					ms, err := cli.Margins()
					if err != nil {
						return 0, err
					}
					sinkF = ms[0].Sigma
				}
				return int64(iters), nil
			},
		},
		{
			Name: "lifetime_advance", Group: "lifetime", AllocStable: true,
			Note:  "one 6 h drift epoch on the reference server, every core aged and refreshed (lifetime.Overlay.Advance)",
			Iters: pick(quick, 2_000, 20_000),
			Run: func(iters int) (int64, error) {
				for i := 0; i < iters; i++ {
					ov.Advance(6, active)
				}
				return int64(iters), nil
			},
		},
	}
}
