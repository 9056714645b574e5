package dc

import "testing"

// The budget ramp's properties. The ramp is a soft start, not a
// regulator: each step adds rampFrac·(grant − telemetry), and the
// throttle has already held the draw at or under min(grant, ramp). The
// step can still fall, for two reasons the population below reaches:
//
//   - A thermal excursion forces the chip's cap below its idle floor,
//     so its grant sits below the idle draw (by about 28 W at
//     thermal-frac 0.5) and no throttle can shed the difference. The
//     ROADMAP premise that every update is ≥ 0 is false there: the
//     step is negative, the cap clamp pulls the ramp under idle and
//     the idle clamp then pins it at idle.
//   - A brownout whose chassis or rack cap lands below its chips' idle
//     draw water-fills grants below idle the same way; the ramp then
//     falls by half the shortfall per tick until it reaches idle.
//
// A dark chip's held telemetry can also exceed its grant; those steps
// are exempt.

// TestRampHalvesGapToGrant: with the grant held fixed and a load that
// draws its whole allowance, each step at least halves the gap between
// the ramp and the grant, and the ramp never passes the grant.
func TestRampHalvesGapToGrant(t *testing.T) {
	idle := []float64{10, 30}
	tree := NewBudgetTree(1, 1, 2, 200, 200, 100, idle)
	req := []float64{90, 60}
	tree.Apportion(req)
	draw := make([]float64, len(idle))
	for step := 0; step < 40; step++ {
		gap := make([]float64, len(idle))
		for i := range idle {
			draw[i] = tree.Allowance(i)
			gap[i] = tree.Grant(i) - tree.ramp[i]
		}
		tree.Ramp(draw)
		for i := range idle {
			after := tree.Grant(i) - tree.ramp[i]
			if after < 0 || after > gap[i]/2+budgetEps {
				t.Fatalf("step %d, chip %d: gap to the grant %v → %v, want at most half and not below 0",
					step, i, gap[i], after)
			}
		}
	}
	for i := range idle {
		if a, g := tree.Allowance(i), tree.Grant(i); g-a > budgetEps {
			t.Errorf("chip %d: allowance %v after 40 steps, want the grant %v", i, a, g)
		}
	}
}

// TestReAdmitRestartsRampAtIdle: after ReAdmit, the next allowance is
// min(grant, idle), whatever the ramp held before, and a floor of 0
// (a quarantine or a chip death) leaves the chip no allowance.
func TestReAdmitRestartsRampAtIdle(t *testing.T) {
	idle := []float64{20, 20}
	req := []float64{80, 80}
	tree := NewBudgetTree(1, 1, 2, 200, 200, 100, idle)
	for i := 0; i < 40; i++ {
		tree.Apportion(req)
		tree.Ramp(idle)
	}
	if a := tree.Allowance(0); a != 80 {
		t.Fatalf("warmed-up allowance %v, want the grant 80", a)
	}
	tree.ReAdmit(0, 0)
	tree.Apportion(req)
	if a := tree.Allowance(0); a != 0 {
		t.Fatalf("allowance %v after a zero floor, want 0", a)
	}
	for _, floor := range []float64{25, 95} {
		tree.ReAdmit(0, floor)
		tree.Apportion(req)
		if a, want := tree.Allowance(0), min(tree.Grant(0), floor); a != want {
			t.Errorf("floor %v: allowance %v after ReAdmit, want min(grant %v, idle) = %v",
				floor, a, tree.Grant(0), want)
		}
	}
}

// TestPopulationRamp checks the ramp around every step of generated
// campaigns (random topologies, caps, ops presets and ops timelines),
// reading the tree through rampStep:
//
//   - after the step, idle ≤ ramp ≤ max(idle, effective chip cap) and
//     allowance ≤ grant;
//   - outside a dark window, a step lowers the ramp by more than
//     ½·budgetEps only where the chip's effective cap fell below it or
//     its grant below its idle draw;
//   - a chip re-admitted this tick enters the step with allowance
//     min(grant, idle).
//
// It also requires the population to reach a thermal drop, a dark
// chip and a re-admission at least once.
func TestPopulationRamp(t *testing.T) {
	var (
		pre                                                  []float64
		steps, thermalDrops, belowIdleDrops, darkN, readmits int
	)
	orig := rampStep
	t.Cleanup(func() { rampStep = orig })
	rampStep = func(tree *BudgetTree, telemetry []float64, ops *opsPlane, tick int) {
		for k := len(ops.events) - 1; k >= 0 && ops.events[k].Tick == tick; k-- {
			if ops.events[k].Kind != "readmit" {
				continue
			}
			for i := range ops.placer.Chips {
				if ops.placer.Chips[i].ID != ops.events[k].Node {
					continue
				}
				readmits++
				if a, want := tree.Allowance(i), min(tree.Grant(i), tree.idle[i]); a != want {
					t.Errorf("tick %d, chip %d re-admitted: allowance %v, want min(grant, idle) = %v", tick, i, a, want)
				}
			}
		}
		pre = append(pre[:0], tree.ramp...)
		tree.Ramp(telemetry)
		steps++
		for i, r := range tree.ramp {
			idle, capW := tree.idle[i], tree.chipEff[i]
			if r < idle || r > max(idle, capW) {
				t.Errorf("tick %d, chip %d: ramp %v outside [idle %v, max(idle, cap %v)]", tick, i, r, idle, capW)
			}
			if a, g := tree.Allowance(i), tree.Grant(i); a > g {
				t.Errorf("tick %d, chip %d: allowance %v above grant %v", tick, i, a, g)
			}
			if ops.dark(i, tick) {
				darkN++
				continue
			}
			if r >= pre[i]-budgetEps/2 {
				continue
			}
			switch {
			case capW < pre[i]:
				thermalDrops++
			case tree.Grant(i) < idle:
				belowIdleDrops++
			default:
				t.Errorf("tick %d, chip %d: ramp fell %v → %v with cap %v, grant %v and idle %v",
					tick, i, pre[i], r, capW, tree.Grant(i), idle)
			}
		}
	}

	g := newPopGen(t, "dc/population/ramp")
	ran := 0
	for n := 0; n < 64; n++ {
		o, idle := g.options()
		o.ChipCapW = g.capAround(idle.chip)
		o.ChassisCapW = g.capAround(idle.chassis)
		o.RackCapW = g.capAround(idle.rack)
		if (o.ChipCapW > 0 && o.ChipCapW < idle.chip) ||
			(o.ChassisCapW > 0 && o.ChassisCapW < idle.chassis) ||
			(o.RackCapW > 0 && o.RackCapW < idle.rack) {
			continue // rejected before the first tick
		}
		if _, err := Run(o); err != nil {
			t.Fatalf("config %d %+v: %v", n, o, err)
		}
		ran++
	}
	t.Logf("%d campaigns, %d steps: %d thermal and %d below-idle-grant drops, %d dark chip-steps, %d re-admits",
		ran, steps, thermalDrops, belowIdleDrops, darkN, readmits)
	if thermalDrops == 0 || darkN == 0 || readmits == 0 {
		t.Fatalf("the population reached %d thermal drops, %d dark chip-steps and %d re-admits; each needs at least one",
			thermalDrops, darkN, readmits)
	}
}
