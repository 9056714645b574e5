package dc

import (
	"math"
	"testing"
)

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestWaterFillConservesAndCaps(t *testing.T) {
	cases := []struct {
		budget float64
		need   []float64
	}{
		{100, []float64{10, 20, 30, 40}},       // budget covers all needs
		{50, []float64{40, 40, 40, 40}},        // equal split
		{60, []float64{5, 100, 100, 100}},      // one small child frees residue
		{0, []float64{10, 10}},                 // nothing to give
		{30, []float64{0, 0, 0}},               // nothing wanted
		{70, []float64{1, 2, 3, 100}},          // heavy skew
		{33.3, []float64{11.1, 11.1, 11.1, 1}}, // fractional
	}
	out := make([]float64, 8)
	for _, tc := range cases {
		o := out[:len(tc.need)]
		waterFill(tc.budget, tc.need, o)
		if s := sum(o); s > tc.budget+1e-6 {
			t.Errorf("waterFill(%v, %v) = %v: sum %v exceeds budget", tc.budget, tc.need, o, s)
		}
		for i := range o {
			if o[i] > tc.need[i]+1e-6 {
				t.Errorf("waterFill(%v, %v): child %d got %v > need %v", tc.budget, tc.need, i, o[i], tc.need[i])
			}
			if o[i] < 0 {
				t.Errorf("waterFill(%v, %v): child %d negative grant %v", tc.budget, tc.need, i, o[i])
			}
		}
		// When the budget covers every need, everyone is satisfied.
		if tc.budget >= sum(tc.need) {
			for i := range o {
				if math.Abs(o[i]-tc.need[i]) > 1e-6 {
					t.Errorf("waterFill(%v, %v): slack budget but child %d got %v, want %v",
						tc.budget, tc.need, i, o[i], tc.need[i])
				}
			}
		}
	}
}

func TestApportionRespectsEveryLevel(t *testing.T) {
	const (
		racks, chassisPerRack, chipsPerChassis = 2, 3, 4
		rackCap, chassisCap, chipCap           = 500.0, 200.0, 80.0
	)
	n := racks * chassisPerRack * chipsPerChassis
	idle := make([]float64, n)
	req := make([]float64, n)
	for i := range idle {
		idle[i] = 20 + float64(i%5)
		req[i] = 30 + float64(i*7%90) // some above chipCap, some below idle
	}
	tree := NewBudgetTree(racks, chassisPerRack, chipsPerChassis, rackCap, chassisCap, chipCap, idle)
	tree.Apportion(req)

	idx := 0
	for r := 0; r < racks; r++ {
		rackSum := 0.0
		for c := 0; c < chassisPerRack; c++ {
			chassisSum := 0.0
			for s := 0; s < chipsPerChassis; s++ {
				g := tree.Grant(idx)
				if g > chipCap+1e-6 {
					t.Errorf("chip %d grant %v exceeds chip cap %v", idx, g, chipCap)
				}
				chassisSum += g
				idx++
			}
			if chassisSum > chassisCap+1e-6 {
				t.Errorf("rack %d chassis %d grants sum %v exceeds chassis cap %v", r, c, chassisSum, chassisCap)
			}
			rackSum += chassisSum
		}
		if rackSum > rackCap+1e-6 {
			t.Errorf("rack %d grants sum %v exceeds rack cap %v", r, rackSum, rackCap)
		}
	}
}

func TestRegulateRampAndClamp(t *testing.T) {
	idle := []float64{10, 10}
	tree := NewBudgetTree(1, 1, 2, 100, 100, 50, idle)
	tree.Apportion([]float64{40, 40})
	if g := tree.Grant(0); math.Abs(g-40) > 1e-6 {
		t.Fatalf("grant = %v, want 40", g)
	}
	// The ramp starts at the idle floor: allowance is gated.
	if a := tree.Allowance(0); math.Abs(a-10) > 1e-6 {
		t.Fatalf("initial allowance = %v, want idle floor 10", a)
	}
	// Idle telemetry ramps toward the grant: 10 + 0.5·(40−10) = 25.
	tree.Ramp([]float64{10, 10})
	if a := tree.Allowance(0); math.Abs(a-25) > 1e-6 {
		t.Fatalf("allowance after one tick = %v, want 25", a)
	}
	// Convergence: allowance reaches the grant and never exceeds it.
	for i := 0; i < 60; i++ {
		tree.Ramp([]float64{10, 10})
	}
	if a := tree.Allowance(0); math.Abs(a-40) > 1e-6 {
		t.Fatalf("converged allowance = %v, want grant 40", a)
	}
	// Over-draw steps the ramp down, floored at idle.
	for i := 0; i < 200; i++ {
		tree.Ramp([]float64{500, 500})
	}
	if a := tree.Allowance(0); math.Abs(a-10) > 1e-6 {
		t.Fatalf("floored allowance = %v, want idle 10", a)
	}
}

// TestDegradedChassisCapConvergence drops one chassis's effective cap
// mid-loop (a PDU brownout), checks the water-fill immediately confines
// that chassis to the degraded budget while the other chassis is
// untouched, then restores the cap and requires the survivors to climb
// back to their pre-brownout allowances within a small K — the
// degraded-mode rebalance the ops plane leans on.
func TestDegradedChassisCapConvergence(t *testing.T) {
	idle := []float64{10, 10, 10, 10}
	tree := NewBudgetTree(1, 2, 2, 400, 100, 60, idle)
	req := []float64{50, 50, 50, 50}
	step := func() {
		tree.Apportion(req)
		tree.Ramp(idle) // idle draw: the ramp climbs freely
	}
	for i := 0; i < 20; i++ {
		step()
	}
	pre := make([]float64, 4)
	for i := range pre {
		pre[i] = tree.Allowance(i)
		if math.Abs(pre[i]-50) > 1e-6 {
			t.Fatalf("chip %d pre-brownout allowance %v, want the full request 50", i, pre[i])
		}
	}

	const degraded = 40.0
	tree.SetChassisCap(0, degraded)
	for i := 0; i < 10; i++ {
		step()
		if s := tree.Grant(0) + tree.Grant(1); s > degraded+1e-6 {
			t.Fatalf("degraded chassis grants sum %v exceed forced cap %v", s, degraded)
		}
		if s := tree.Grant(2) + tree.Grant(3); s > 100+1e-6 {
			t.Fatalf("healthy chassis grants sum %v exceed its cap", s)
		}
	}
	// The fair split of the degraded budget.
	for _, i := range []int{0, 1} {
		if a := tree.Allowance(i); math.Abs(a-degraded/2) > 1e-6 {
			t.Fatalf("chip %d degraded allowance %v, want %v", i, a, degraded/2)
		}
	}
	// Survivors on the healthy chassis never flinched.
	for _, i := range []int{2, 3} {
		if a := tree.Allowance(i); math.Abs(a-pre[i]) > 1e-6 {
			t.Fatalf("chip %d on the healthy chassis moved to %v during the brownout", i, a)
		}
	}

	tree.ResetChassisCap(0)
	const K = 8
	for i := 0; i < K; i++ {
		step()
	}
	for i := range pre {
		if a := tree.Allowance(i); math.Abs(a-pre[i]) > 1e-6 {
			t.Fatalf("chip %d allowance %v did not converge back to %v within %d ticks", i, a, pre[i], K)
		}
	}
}

func TestBudgetStepAllocFree(t *testing.T) {
	n := 2 * 4 * 8
	idle := make([]float64, n)
	req := make([]float64, n)
	meas := make([]float64, n)
	for i := range idle {
		idle[i] = 50
		req[i] = 80 + float64(i%30)
		meas[i] = 60
	}
	tree := NewBudgetTree(2, 4, 8, 2000, 600, 150, idle)
	allocs := testing.AllocsPerRun(100, func() {
		tree.Apportion(req)
		tree.Ramp(meas)
		tree.Check(meas)
	})
	if allocs != 0 {
		t.Fatalf("budget step allocates %v per op, want 0", allocs)
	}
}

// TestBudgetCheck pins the one definition of a budget violation on a
// 1×2×2 tree: a draw at a level's cap is within it, a watt over any
// chip, chassis or rack cap counts once, and the only excuse is the
// idle draw a forced cap's grants could not cover.
func TestBudgetCheck(t *testing.T) {
	idle := []float64{10, 10, 10, 10}
	every := []float64{40, 40, 40, 40}

	// Caps 100/60/40: the request water-fills to 25 W per chip, above
	// every idle floor, so no level has anything to excuse.
	tree := NewBudgetTree(1, 2, 2, 100, 60, 40, idle)
	tree.Apportion(every)
	for _, tc := range []struct {
		name     string
		measured []float64
		want     int
	}{
		{"chip, chassis and rack at their caps", []float64{40, 20, 30, 10}, 0},
		{"a chip 1 W over", []float64{41, 10, 30, 10}, 1},
		{"a chassis 1 W over", []float64{40, 21, 20, 10}, 1},
		{"the rack 1 W over", []float64{40, 20, 30, 11}, 1},
	} {
		if _, _, _, got := tree.Check(tc.measured); got != tc.want {
			t.Errorf("%s: %d violation(s), want %d", tc.name, got, tc.want)
		}
	}
	rackMax, chassisMax, chipMax, _ := tree.Check([]float64{40, 20, 30, 10})
	if rackMax != 100 || chassisMax != 60 || chipMax != 40 {
		t.Errorf("maxima = %v/%v/%v W, want 100/60/40", rackMax, chassisMax, chipMax)
	}

	// A brownout drops chassis 0 to 15 W, below its chips' summed
	// 20 W idle: each chip's 7.5 W grant leaves 2.5 W of idle uncovered,
	// so the chassis threshold is 15 + 5 W.
	tree.SetChassisCap(0, 15)
	tree.Apportion(every)
	if _, _, _, got := tree.Check([]float64{10, 10, 30, 30}); got != 0 {
		t.Errorf("brownout: chips at idle count %d violation(s), want 0", got)
	}
	if _, _, _, got := tree.Check([]float64{11, 10, 30, 30}); got != 1 {
		t.Errorf("brownout: 1 W over the excused idle counts %d violation(s), want 1", got)
	}

	// Caps 200/30/40, then a thermal excursion forces chip 0 to 5 W,
	// half its idle floor: its grant is 5 W, chip 1's 25 W, and chassis
	// 0 excuses exactly 10 − 5 W over its 30 W cap.
	tree = NewBudgetTree(1, 2, 2, 200, 30, 40, idle)
	tree.ForceChipCap(0, 5)
	tree.Apportion(every)
	if g0, g1 := tree.Grant(0), tree.Grant(1); g0 != 5 || g1 != 25 {
		t.Fatalf("forced grants = %v, %v W, want 5, 25", g0, g1)
	}
	for _, tc := range []struct {
		name     string
		measured []float64
		want     int
	}{
		{"forced chip at idle, chassis at cap + idle − grant", []float64{10, 25, 10, 10}, 0},
		{"forced chip 1 W over idle", []float64{11, 24, 10, 10}, 1},
		{"chassis 1 W over cap + idle − grant", []float64{10, 26, 10, 10}, 1},
	} {
		if _, _, _, got := tree.Check(tc.measured); got != tc.want {
			t.Errorf("%s: %d violation(s), want %d", tc.name, got, tc.want)
		}
	}
}
