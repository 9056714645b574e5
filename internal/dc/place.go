package dc

import (
	"math"

	"repro/internal/guard"
)

// The global scheduler's placement core. Every chip carries the Eq. 1
// per-core frequency fits from its datacenter intake (platform
// provision): f ≈ slope·P + intercept with slope negative, so the
// predicted frequency of a candidate core falls as the chip's
// projected power rises. Place scans every live chip the budget
// admits and picks the (chip, core) pair with the highest predicted
// frequency — the predictor-driven placement the ROADMAP's datacenter
// item asks for.

// PlacerCore is one schedulable core: its label and Eq. 1 fit.
type PlacerCore struct {
	Label       string
	Quarantined bool
	// Slope/Intercept are the core's Eq. 1 frequency fit (MHz per
	// watt, MHz). Zero for quarantined cores.
	Slope     float64
	Intercept float64
}

// PlacerChip is one chip in the scheduler's view.
type PlacerChip struct {
	// ID is the node ID ("r00c01s03").
	ID string
	// Quarantined marks a chip the scheduler never places on: every
	// core quarantined at intake.
	Quarantined bool
	// Offline marks a chip removed from the pool at runtime by the
	// operational fault plane — dead, telemetry-dark past grace, or
	// breaker-quarantined pending re-admission. Unlike Quarantined it
	// can clear again (Rebuild).
	Offline bool
	// IdleW is the chip's measured all-idle power; SpanW is the
	// measured per-core idle→loaded span (the power one fully loaded
	// core adds). The sim rejects a negative span at intake: the
	// placement pass's same-tick skip relies on a placement never
	// lowering demand. Its cross-tick carry needs SpanW equal to the
	// span at the last scanned pass, because a survivor's projected
	// draw scales with it; only Rebuild changes it.
	IdleW float64
	SpanW float64
	// Breaker guards the chip: tripped open at intake when the node's
	// provision failed outright, so placement sheds it without
	// consulting its (absent) predictors. Nil admits everything.
	Breaker *guard.Breaker
	Cores   []PlacerCore

	// demand is the chip's current modeled power draw (idle + running
	// tenants); busy marks occupied cores.
	demand    float64
	busy      []bool
	freeCores int
}

// Placer scans chips in topology order; ties in predicted frequency
// break toward the earlier chip and core, so placement is a pure
// function of (chips, demands, allowances).
type Placer struct {
	Chips []PlacerChip
}

// NewPlacer finalizes the per-chip occupancy state. Quarantined chips
// and cores are excluded from the schedulable pool.
func NewPlacer(chips []PlacerChip) *Placer {
	p := &Placer{Chips: chips}
	for i := range p.Chips {
		ch := &p.Chips[i]
		ch.busy = make([]bool, len(ch.Cores))
		ch.freeCores = 0
		ch.demand = ch.IdleW
		if ch.Quarantined {
			ch.demand = 0
			continue
		}
		for _, c := range ch.Cores {
			if !c.Quarantined {
				ch.freeCores++
			}
		}
	}
	return p
}

// Demand returns chip i's current modeled power draw.
func (p *Placer) Demand(i int) float64 { return p.Chips[i].demand }

// FreeCores returns chip i's schedulable idle core count.
func (p *Placer) FreeCores(i int) int { return p.Chips[i].freeCores }

// Place finds the best admission for a tenant with relative dynamic
// power cdyn: among chips whose breaker admits and whose projected
// draw (current demand + cdyn·span) fits the budget allowance, the
// free core with the highest Eq. 1 predicted frequency at the
// projected power. On success the core is marked busy and the chip's
// demand advanced. allow is indexed in topology order.
//
//atm:hotpath
func (p *Placer) Place(cdyn float64, allow []float64) (chipIdx, coreIdx int, predMHz float64, ok bool) {
	chipIdx, coreIdx, predMHz, ok, _ = p.place(cdyn, allow)
	return chipIdx, coreIdx, predMHz, ok
}

// place is Place that also reports breakerOnly: some chip's breaker
// refused the tenant although the chip's flags, free cores and budget
// would have admitted it. Every chip's breaker is asked first, in
// topology order, whatever the rest of the chip's answer.
//
//atm:hotpath
func (p *Placer) place(cdyn float64, allow []float64) (chipIdx, coreIdx int, predMHz float64, ok, breakerOnly bool) {
	bestChip, bestCore := -1, -1
	bestPred := 0.0
	for i := range p.Chips {
		ch := &p.Chips[i]
		admitted := ch.Breaker.Allow()
		if ch.Quarantined || ch.Offline || ch.freeCores == 0 {
			continue
		}
		projected := ch.demand + cdyn*ch.SpanW
		if projected > allow[i]+budgetEps {
			continue
		}
		if !admitted {
			breakerOnly = true
			continue
		}
		for j := range ch.Cores {
			c := &ch.Cores[j]
			if c.Quarantined || ch.busy[j] {
				continue
			}
			pred := c.Slope*projected + c.Intercept
			if bestChip < 0 || pred > bestPred {
				bestChip, bestCore, bestPred = i, j, pred
			}
		}
	}
	if bestChip < 0 {
		return 0, 0, 0, false, breakerOnly
	}
	ch := &p.Chips[bestChip]
	ch.busy[bestCore] = true
	ch.freeCores--
	ch.demand += cdyn * ch.SpanW
	return bestChip, bestCore, bestPred, true, breakerOnly
}

// A placePass is the placement pass's state across a run's ticks.
//
// Within a tick's pass it keeps minFail, the smallest cdyn that failed
// in the pass with no chip refused by its breaker alone. A failed
// attempt changes no placer state and a success only adds demand (cdyn
// and SpanW are non-negative) and busies a core, so every chip that
// refused minFail refuses any later tenant at or above it, whatever its
// breaker says. Such a tenant defers without being scored, but its
// attempt still asks every breaker in topology order, so rejection
// counts and half-open transitions are those of a full scan. Within a pass only its own placements may change the placer;
// allowances, chip flags and breaker outcomes stay fixed.
//
// Across ticks it carries a whole pass's failures. When a scanned pass
// ends, every survivor was refused by every chip on the chip's flags,
// free cores or budget (demand + cdyn·span > grant + eps), unless a
// breaker alone refused one. The pass records each chip's state then.
// The next pass carries the survivors over unscored when no tenant has
// joined the queue since, no survivor was refused by a breaker alone,
// and each chip still refuses them all: it is flagged now, or it was
// unflagged then and is now, with the same span, and either has no free
// core now or had one then and has no less demand and no more grant
// now. The refusal test is monotone in demand and grant under
// rounding, so these plain comparisons are exact; a NaN fails them and
// the pass is scanned. A carried pass asks each chip's breaker for all
// its tenants at once with AllowN, in topology order. Breakers are
// independent, so rejection counts and transitions end as a full scan
// leaves them. The record stays that of the last scanned
// pass, whose survivors a carried pass leaves unchanged.
type placePass struct {
	minFail     float64
	breakerOnly bool // a failed tenant was refused by a breaker alone

	survivors int // the last scanned pass's, -1 before the first
	last      []passChip
}

// passChip is one chip's state when the last scanned pass ended.
type passChip struct {
	flagged              bool // Quarantined or Offline
	free                 bool // a schedulable idle core
	spanW, demand, grant float64
}

func newPlacePass(chips int) *placePass {
	return &placePass{survivors: -1, last: make([]passChip, chips)}
}

// carry starts a tick's pass over a queue of n tenants. It reports
// whether the pass carries the last pass's failures; it has then asked
// every breaker n times and every tenant defers. Otherwise the caller
// offers each tenant to place and calls end.
//
//atm:hotpath
func (s *placePass) carry(p *Placer, grants []float64, n int) bool {
	if s.carries(p, grants, n) {
		for i := range p.Chips {
			p.Chips[i].Breaker.AllowN(n)
		}
		return true
	}
	s.minFail, s.breakerOnly = math.Inf(1), false
	return false
}

// carries is carry's test, O(chips).
//
//atm:hotpath
func (s *placePass) carries(p *Placer, grants []float64, n int) bool {
	if n != s.survivors || s.breakerOnly {
		return false
	}
	for i := range p.Chips {
		ch, last := &p.Chips[i], &s.last[i]
		switch {
		case ch.Quarantined || ch.Offline: // refuses every tenant
		//lint:ignore floatcmp the carry needs the span the survivors were refused at, not a close one
		case last.flagged || ch.SpanW != last.spanW:
			return false
		case ch.freeCores == 0: // refuses every tenant
		case !last.free || !(ch.demand >= last.demand) || !(grants[i] <= last.grant):
			return false
		}
	}
	return true
}

// place offers the pass's next tenant to p and answers as Place would.
//
//atm:hotpath
func (s *placePass) place(p *Placer, cdyn float64, allow []float64) (chipIdx, coreIdx int, predMHz float64, ok bool) {
	if cdyn >= s.minFail {
		for i := range p.Chips {
			p.Chips[i].Breaker.Allow()
		}
		return 0, 0, 0, false
	}
	chipIdx, coreIdx, predMHz, ok, breakerOnly := p.place(cdyn, allow)
	if !ok {
		if breakerOnly {
			s.breakerOnly = true
		} else {
			s.minFail = cdyn
		}
	}
	return chipIdx, coreIdx, predMHz, ok
}

// end records the state a scanned pass left, with its survivor count.
//
//atm:hotpath
func (s *placePass) end(p *Placer, grants []float64, survivors int) {
	s.survivors = survivors
	for i := range p.Chips {
		ch := &p.Chips[i]
		s.last[i] = passChip{
			flagged: ch.Quarantined || ch.Offline,
			free:    ch.freeCores > 0,
			spanW:   ch.SpanW,
			demand:  ch.demand,
			grant:   grants[i],
		}
	}
}

// Release frees a core and retires its tenant's power draw.
//
//atm:hotpath
func (p *Placer) Release(chipIdx, coreIdx int, cdyn float64) {
	ch := &p.Chips[chipIdx]
	ch.busy[coreIdx] = false
	ch.freeCores++
	ch.demand -= cdyn * ch.SpanW
}

// AddDemand adjusts a chip's modeled draw without touching occupancy —
// the throttle bookkeeping: a throttled tenant keeps its core but
// stops drawing its span.
//
//atm:hotpath
func (p *Placer) AddDemand(chipIdx int, delta float64) {
	p.Chips[chipIdx].demand += delta
}

// Reset takes chip i out of the schedulable pool at runtime: the ops
// plane calls it when a chip dies or is quarantined after its
// telemetry-loss grace window expires. All occupancy is cleared (the
// caller evacuates the tenants) and the modeled draw drops to zero —
// a dead or dark chip contributes nothing to the hierarchy. dead
// distinguishes permanent loss from a quarantine that may later be
// lifted by Rebuild; it is recorded via Offline either way, with
// Quarantined reserved for intake outcomes.
func (p *Placer) Reset(i int, dead bool) {
	ch := &p.Chips[i]
	ch.Offline = true
	if dead {
		ch.Quarantined = true
	}
	for j := range ch.busy {
		ch.busy[j] = false
	}
	ch.freeCores = 0
	ch.demand = 0
}

// Rebuild re-admits chip i with a freshly validated view of its
// intake provision: the idle/span envelope and per-core Eq. 1 fits.
// Occupancy restarts empty — evacuated tenants re-enter through the
// queue — and the modeled draw restarts at the idle floor.
func (p *Placer) Rebuild(i int, idleW, spanW float64, cores []PlacerCore) {
	ch := &p.Chips[i]
	ch.Offline = false
	ch.Quarantined = false
	ch.IdleW = idleW
	ch.SpanW = spanW
	ch.Cores = cores
	ch.busy = make([]bool, len(cores))
	ch.freeCores = 0
	for _, c := range cores {
		if !c.Quarantined {
			ch.freeCores++
		}
	}
	ch.demand = idleW
}
