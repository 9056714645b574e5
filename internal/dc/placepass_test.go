package dc

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/guard"
	"repro/internal/rng"
)

// placeFullScan is Place's scan with no skip and nothing shared with
// place: every chip's breaker first, in topology order, then its flags,
// free cores, budget and cores. breakerAlone reports a chip whose
// breaker refused although the rest would have admitted the tenant.
func placeFullScan(p *Placer, cdyn float64, allow []float64) (chipIdx, coreIdx int, predMHz float64, ok, breakerAlone bool) {
	bestChip, bestCore := -1, -1
	bestPred := 0.0
	for i := range p.Chips {
		ch := &p.Chips[i]
		if !ch.Breaker.Allow() {
			if !ch.Quarantined && !ch.Offline && ch.freeCores > 0 && ch.demand+cdyn*ch.SpanW <= allow[i]+budgetEps {
				breakerAlone = true
			}
			continue
		}
		if ch.Quarantined || ch.Offline || ch.freeCores == 0 {
			continue
		}
		projected := ch.demand + cdyn*ch.SpanW
		if projected > allow[i]+budgetEps {
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
		return 0, 0, 0, false, breakerAlone
	}
	ch := &p.Chips[bestChip]
	ch.busy[bestCore] = true
	ch.freeCores--
	ch.demand += cdyn * ch.SpanW
	return bestChip, bestCore, bestPred, true, breakerAlone
}

// passState is one random placer state for the skip property, with
// the tick clock its breakers read, the pass's grants, the queue's
// cdyn values and the tick of the first pass.
type passState struct {
	placer *Placer
	clock  *int64
	allow  []float64
	queue  []float64
	start  int64
}

// randomPassState draws a placer state from seed: 1–16 chips, some
// Quarantined or Offline, cores quarantined, busy or free, demands
// from the busy cores' draw, spans from 0 up, grants below, at and
// above the next tenant's projection, and breakers nil, closed or
// open on the tick clock or the event clock with windows of 1–6.
// Equal seeds give equal, independent states.
func randomPassState(seed uint64) passState {
	src := rng.New(seed)
	clock := new(int64)
	s := passState{clock: clock, start: int64(src.Intn(8))}
	chips := make([]PlacerChip, 1+src.Intn(16))
	for i := range chips {
		ch := &chips[i]
		ch.ID = NodeID(0, 0, i)
		ch.IdleW = 40 + 20*src.Float64()
		if src.Intn(4) != 0 {
			ch.SpanW = 20 * src.Float64()
		}
		ch.Quarantined = src.Intn(8) == 0
		for j := range 1 + src.Intn(8) {
			ch.Cores = append(ch.Cores, PlacerCore{
				Label:       fmt.Sprintf("C%d", j),
				Quarantined: src.Intn(5) == 0,
				Slope:       -1 - 2*src.Float64(),
				Intercept:   4000 + 300*src.Float64(),
			})
		}
		opts := guard.BreakerOptions{FailureThreshold: 1, OpenTicks: int64(1 + src.Intn(6))}
		if src.Intn(2) == 0 {
			opts.Now = func() int64 { return *clock }
		}
		switch src.Intn(5) {
		case 0: // nil: admits everything
		case 1:
			ch.Breaker = guard.NewBreaker(opts)
		default:
			ch.Breaker = guard.NewBreaker(opts)
			ch.Breaker.Failure() // open from tick 0, or event 0
		}
	}
	s.placer = NewPlacer(chips)
	s.allow = make([]float64, len(chips))
	for i := range s.placer.Chips {
		ch := &s.placer.Chips[i]
		if src.Intn(8) == 0 {
			s.placer.Reset(i, false)
		}
		for j := range ch.Cores {
			if !ch.Quarantined && !ch.Offline && !ch.Cores[j].Quarantined && src.Intn(3) == 0 {
				ch.busy[j] = true
				ch.freeCores--
				ch.demand += (0.3 + src.Float64()) * ch.SpanW
			}
		}
		if src.Intn(3) == 0 {
			s.allow[i] = ch.demand + 0.25*float64(src.Intn(6))*ch.SpanW
		} else {
			s.allow[i] = ch.demand + (3*src.Float64()-0.5)*ch.SpanW + src.Float64() - 0.5
		}
	}
	levels := []float64{0, 0.25, 0.5, 0.75, 1, 1.25}
	for range 1 + src.Intn(40) {
		if src.Intn(2) == 0 {
			s.queue = append(s.queue, levels[src.Intn(len(levels))])
		} else {
			s.queue = append(s.queue, 1.5*src.Float64())
		}
	}
	return s
}

// attempt is one tenant's outcome in a pass.
type attempt struct {
	chip, core int
	predBits   uint64
	ok         bool
}

// TestPlacePassMatchesFullScan drives random placer states through up
// to three ticks of the skipping pass and of a full scan, survivors
// carried to the next tick as the sim carries them, and requires the
// same placements, deferral counts, placer state, and breaker
// rejections, states and later answers. The states include breakers
// that alone refuse an otherwise admissible chip and, on the event
// clock, half-open within the pass.
func TestPlacePassMatchesFullScan(t *testing.T) {
	skipped, breakerAlone := 0, 0
	for seed := uint64(1); seed <= 3000; seed++ {
		got, want := randomPassState(seed), randomPassState(seed)
		gotQ, wantQ := got.queue, want.queue
		for tick := got.start; tick < got.start+1+int64(seed%3); tick++ {
			*got.clock, *want.clock = tick, tick
			var gotA, wantA []attempt
			pass := newPlacePass()
			var gotStill, wantStill []float64
			for _, c := range gotQ {
				if c >= pass.minFail {
					skipped++
				}
				ci, cj, pred, ok := pass.place(got.placer, c, got.allow)
				gotA = append(gotA, attempt{ci, cj, math.Float64bits(pred), ok})
				if !ok {
					gotStill = append(gotStill, c)
				}
			}
			for _, c := range wantQ {
				ci, cj, pred, ok, alone := placeFullScan(want.placer, c, want.allow)
				wantA = append(wantA, attempt{ci, cj, math.Float64bits(pred), ok})
				if !ok {
					wantStill = append(wantStill, c)
					if alone {
						breakerAlone++
					}
				}
			}
			if !slices.Equal(gotA, wantA) {
				t.Fatalf("seed %d tick %d: pass attempts\n got %v\nwant %v", seed, tick, gotA, wantA)
			}
			if len(gotStill) != len(wantStill) {
				t.Fatalf("seed %d tick %d: %d deferrals, full scan %d", seed, tick, len(gotStill), len(wantStill))
			}
			gotQ, wantQ = gotStill, wantStill
		}
		for i := range got.placer.Chips {
			g, w := &got.placer.Chips[i], &want.placer.Chips[i]
			if math.Float64bits(g.demand) != math.Float64bits(w.demand) || g.freeCores != w.freeCores ||
				!slices.Equal(g.busy, w.busy) || g.Quarantined != w.Quarantined || g.Offline != w.Offline {
				t.Fatalf("seed %d chip %d: placer state %+v, full scan %+v", seed, i, *g, *w)
			}
			if g.Breaker.Rejected() != w.Breaker.Rejected() || g.Breaker.State() != w.Breaker.State() {
				t.Fatalf("seed %d chip %d: breaker %v with %d rejected, full scan %v with %d",
					seed, i, g.Breaker.State(), g.Breaker.Rejected(), w.Breaker.State(), w.Breaker.Rejected())
			}
			// Equal event clocks answer the next calls alike.
			for k := 0; k < 6; k++ {
				if ga, wa := g.Breaker.Allow(), w.Breaker.Allow(); ga != wa {
					t.Fatalf("seed %d chip %d: call %d after the passes admits %v, full scan %v", seed, i, k, ga, wa)
				}
			}
		}
	}
	t.Logf("%d attempts skipped, %d failures with a chip refused by its breaker alone", skipped, breakerAlone)
	if skipped < 1000 || breakerAlone < 100 {
		t.Fatalf("%d attempts skipped and %d failures had a chip refused by its breaker alone, want at least 1000 and 100",
			skipped, breakerAlone)
	}
}
