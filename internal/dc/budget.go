package dc

// The hierarchical power budget: rack PDU → chassis → chip. Each tick
// the tree water-fills every level's cap over its children's requests
// (Apportion) and then advances a Chen-style integral controller per
// chip (Regulate, after arXiv:1709.04859): the integral state `soft`
// ramps each chip's admission toward its grant at rate ki·(grant −
// measured), and the effective allowance is min(grant, soft). The min
// makes cap safety structural — water-filling conserves every level's
// cap, so each level draws at most its cap plus the idle draw its
// grants could not cover (Check) — while the integral supplies the
// soft-start dynamics: a freshly provisioned chip earns budget over a
// few ticks instead of slamming to its grant.

// budgetEps is the slack under every cap comparison: water-fill
// residues are sums of float64 divisions and land within a few ulp of
// the cap, which must not read as violations.
const budgetEps = 1e-9

// BudgetTree is the three-level budget hierarchy over a fixed
// topology. All per-tick state is preallocated; Apportion, Regulate
// and Check run allocation-free on the sim's hot path.
type BudgetTree struct {
	racks, chassisPerRack, chipsPerChassis int

	rackCap    float64
	chassisCap float64
	chipCap    float64
	ki         float64

	// Effective caps per entity. They start at the configured scalars
	// and diverge only under operational events: a brownout drops a
	// rack or chassis cap for its window, a thermal excursion forces a
	// chip cap below its idle floor. Apportion and Regulate read these,
	// never the base scalars, so degraded-mode water-fill is the same
	// code path as nominal operation.
	rackEff    []float64
	chassisEff []float64
	chipEff    []float64

	// idle is the per-chip admission floor (the power a live chip draws
	// with every core idle; 0 for quarantined chips).
	idle []float64
	// grant is the per-chip water-filled share of this tick's caps.
	grant []float64
	// soft is the per-chip integral state, clamped to [idle, chip cap].
	soft []float64

	// Scratch for the two water-fill levels.
	chassisNeed  []float64
	chassisGrant []float64
	chipNeed     []float64
	chipGrant    []float64
}

// NewBudgetTree builds the hierarchy. idle holds one admission floor
// per chip in topology order (rack-major, then chassis, then slot);
// ki ≤ 0 selects the default integral gain of 0.5. The integral state
// starts at the idle floor, so allowances ramp up from idle.
func NewBudgetTree(racks, chassisPerRack, chipsPerChassis int, rackCapW, chassisCapW, chipCapW, ki float64, idle []float64) *BudgetTree {
	if ki <= 0 {
		ki = 0.5
	}
	n := racks * chassisPerRack * chipsPerChassis
	t := &BudgetTree{
		racks:           racks,
		chassisPerRack:  chassisPerRack,
		chipsPerChassis: chipsPerChassis,
		rackCap:         rackCapW,
		chassisCap:      chassisCapW,
		chipCap:         chipCapW,
		ki:              ki,
		rackEff:         make([]float64, racks),
		chassisEff:      make([]float64, racks*chassisPerRack),
		chipEff:         make([]float64, n),
		idle:            make([]float64, n),
		grant:           make([]float64, n),
		soft:            make([]float64, n),
		chassisNeed:     make([]float64, chassisPerRack),
		chassisGrant:    make([]float64, chassisPerRack),
		chipNeed:        make([]float64, chipsPerChassis),
		chipGrant:       make([]float64, chipsPerChassis),
	}
	copy(t.idle, idle)
	copy(t.soft, idle)
	for i := range t.rackEff {
		t.rackEff[i] = rackCapW
	}
	for i := range t.chassisEff {
		t.chassisEff[i] = chassisCapW
	}
	for i := range t.chipEff {
		t.chipEff[i] = chipCapW
	}
	return t
}

// Grant returns chip i's current water-filled grant.
func (t *BudgetTree) Grant(i int) float64 { return t.grant[i] }

// Allowance returns chip i's effective admission this tick: the
// water-filled grant gated by the integral state. min(grant, soft)
// keeps the hierarchy safe by construction while soft supplies the
// controller dynamics.
//
//atm:hotpath
func (t *BudgetTree) Allowance(i int) float64 {
	a := t.grant[i]
	if s := t.soft[i]; s < a {
		a = s
	}
	return a
}

// Apportion water-fills the caps over the requested per-chip power
// draw, top down: each rack's cap over its chassis (a chassis needs
// the sum of its chips' capped requests, itself capped at the chassis
// cap), then each chassis grant over its chips. request is indexed in
// topology order and is clamped to [idle, chipCap] per chip.
//
//atm:hotpath
func (t *BudgetTree) Apportion(request []float64) {
	chip := 0
	for r := 0; r < t.racks; r++ {
		rackBase := chip
		// Chassis needs: sum of capped chip requests, capped at the
		// chassis cap.
		for c := 0; c < t.chassisPerRack; c++ {
			need := 0.0
			for s := 0; s < t.chipsPerChassis; s++ {
				need += t.clampRequest(request[chip], chip)
				chip++
			}
			if cap := t.chassisEff[r*t.chassisPerRack+c]; need > cap {
				need = cap
			}
			t.chassisNeed[c] = need
		}
		waterFill(t.rackEff[r], t.chassisNeed, t.chassisGrant)
		// Chip grants inside each chassis.
		chip = rackBase
		for c := 0; c < t.chassisPerRack; c++ {
			for s := 0; s < t.chipsPerChassis; s++ {
				t.chipNeed[s] = t.clampRequest(request[chip+s], chip+s)
			}
			waterFill(t.chassisGrant[c], t.chipNeed, t.chipGrant)
			for s := 0; s < t.chipsPerChassis; s++ {
				t.grant[chip+s] = t.chipGrant[s]
			}
			chip += t.chipsPerChassis
		}
	}
}

// Regulate advances the per-chip integral controllers one tick:
// soft += ki·(grant − measured), clamped to [idle, chip cap]. The
// idle floor is applied last, matching nominal operation; a chip whose
// effective cap sits below its idle floor (thermal excursion) is still
// forced under idle through its grant, because clampRequest caps the
// request at the effective ceiling before the water-fill runs.
//
//atm:hotpath
func (t *BudgetTree) Regulate(measured []float64) {
	for i := range t.soft {
		s := t.soft[i] + t.ki*(t.grant[i]-measured[i])
		if s > t.chipEff[i] {
			s = t.chipEff[i]
		}
		if s < t.idle[i] {
			s = t.idle[i]
		}
		t.soft[i] = s
	}
}

// Check measures one tick's per-chip draw against the hierarchy: the
// largest draw at each level and the number of levels over their
// threshold, the one definition of a budget violation. A chip cannot
// shed below its idle floor, so its threshold is max(cap, idle), and a
// chassis or rack excuses the idle draw its grants could not cover,
// Σ max(0, idle − grant). Caps are the effective ones, grants the last
// Apportion's; measured is in topology order.
//
//atm:hotpath
func (t *BudgetTree) Check(measured []float64) (rackMax, chassisMax, chipMax float64, violations int) {
	i := 0
	for r := 0; r < t.racks; r++ {
		rackW, rackSlack := 0.0, 0.0
		for c := 0; c < t.chassisPerRack; c++ {
			chassisW, chassisSlack := 0.0, 0.0
			for s := 0; s < t.chipsPerChassis; s++ {
				w := measured[i]
				chassisW += w
				chipMax = max(chipMax, w)
				chassisSlack += max(0, t.idle[i]-t.grant[i])
				if w > max(t.chipEff[i], t.idle[i])+budgetEps {
					violations++
				}
				i++
			}
			rackW += chassisW
			rackSlack += chassisSlack
			chassisMax = max(chassisMax, chassisW)
			if chassisW > t.chassisEff[r*t.chassisPerRack+c]+chassisSlack+budgetEps {
				violations++
			}
		}
		rackMax = max(rackMax, rackW)
		if rackW > t.rackEff[r]+rackSlack+budgetEps {
			violations++
		}
	}
	return rackMax, chassisMax, chipMax, violations
}

// clampRequest bounds a chip's request to [idle floor, chip cap].
// When an ops event forces the effective cap below the idle floor the
// ceiling wins: the chip is allowed only its forced cap, the one case
// where an allowance legitimately sits below idle.
func (t *BudgetTree) clampRequest(req float64, i int) float64 {
	if req > t.chipEff[i] {
		req = t.chipEff[i]
	}
	if req < t.idle[i] && t.idle[i] <= t.chipEff[i] {
		req = t.idle[i]
	}
	return req
}

// SetRackCap forces rack r's effective cap (a PDU brownout);
// ResetRackCap restores the configured cap.
func (t *BudgetTree) SetRackCap(r int, capW float64) { t.rackEff[r] = capW }

// ResetRackCap restores rack r's configured cap.
func (t *BudgetTree) ResetRackCap(r int) { t.rackEff[r] = t.rackCap }

// SetChassisCap forces chassis ci's effective cap, ci being the global
// chassis index rack·chassisPerRack + chassis.
func (t *BudgetTree) SetChassisCap(ci int, capW float64) { t.chassisEff[ci] = capW }

// ResetChassisCap restores chassis ci's configured cap.
func (t *BudgetTree) ResetChassisCap(ci int) { t.chassisEff[ci] = t.chassisCap }

// ForceChipCap forces chip i's effective ceiling — a thermal excursion
// may push it below the chip's idle floor, and the clamp chain then
// grants the chip only the forced cap.
func (t *BudgetTree) ForceChipCap(i int, capW float64) { t.chipEff[i] = capW }

// ResetChipCap restores chip i's configured ceiling.
func (t *BudgetTree) ResetChipCap(i int) { t.chipEff[i] = t.chipCap }

// SetIdle rewrites chip i's admission floor: 0 for a dead or
// quarantined chip (its draw leaves the hierarchy), the provisioned
// idle watts again on re-admission. The integral state is clamped into
// the new floor's range so a freed chip stops holding budget.
func (t *BudgetTree) SetIdle(i int, idleW float64) {
	t.idle[i] = idleW
	if t.soft[i] < idleW {
		t.soft[i] = idleW
	}
	if idleW == 0 && t.soft[i] > 0 {
		t.soft[i] = 0
	}
}

// ReAdmit restores chip i's admission floor and restarts its integral
// state at that floor — the soft-start: a re-admitted chip earns
// budget back over ticks instead of slamming to its grant.
func (t *BudgetTree) ReAdmit(i int, idleW float64) {
	t.idle[i] = idleW
	t.soft[i] = idleW
}

// waterFill distributes budget over need into out (same length),
// iterative capped fair share: every unsatisfied child gets an equal
// share of the remaining budget, capped at its need; freed residue is
// redistributed until nothing changes. Σ out ≤ budget and out[i] ≤
// need[i] always hold, and the split is deterministic. Bounded by
// len(need)+1 passes (each pass either saturates a child or exhausts
// the budget).
func waterFill(budget float64, need, out []float64) {
	for i := range out {
		out[i] = 0
	}
	remaining := budget
	for pass := 0; pass <= len(need); pass++ {
		active := 0
		for i := range need {
			if need[i]-out[i] > budgetEps {
				active++
			}
		}
		if active == 0 || remaining <= budgetEps {
			return
		}
		share := remaining / float64(active)
		saturated := false
		for i := range need {
			gap := need[i] - out[i]
			if gap <= budgetEps {
				continue
			}
			give := share
			if give >= gap {
				give = gap
				saturated = true
			}
			out[i] += give
			remaining -= give
		}
		if !saturated {
			return // every active child took a full share; budget is spent
		}
	}
}
