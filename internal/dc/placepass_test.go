package dc

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/guard"
	"repro/internal/obs"
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
// the tick clock its breakers read, the registry their series land in,
// the pass's grants, the queue's cdyn values and the tick of the first
// pass.
type passState struct {
	placer *Placer
	clock  *int64
	reg    *obs.Registry
	allow  []float64
	queue  []float64
	start  int64
}

// randomPassState draws a placer state from seed: 1–16 chips, some
// Quarantined or Offline, cores quarantined, busy or free, demands
// from the busy cores' draw, spans from 0 up, grants below, at and
// above the next tenant's projection, and breakers nil, closed or
// open on the tick clock with windows of 1–6. Equal seeds give equal,
// independent states.
func randomPassState(seed uint64) passState {
	src := rng.New(seed)
	clock := new(int64)
	s := passState{clock: clock, reg: obs.NewRegistry(), start: int64(src.Intn(8))}
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
		opts := guard.BreakerOptions{Name: ch.ID, FailureThreshold: 1, OpenTicks: int64(1 + src.Intn(6)),
			Now: func() int64 { return *clock }, Obs: s.reg}
		switch src.Intn(5) {
		case 0: // nil: admits everything
		case 1:
			ch.Breaker = guard.NewBreaker(opts)
		default:
			ch.Breaker = guard.NewBreaker(opts)
			ch.Breaker.Failure() // open from tick 0
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

// changeBetweenTicks makes 0–3 changes to both states alike, as the
// sim's tick makes them between two passes: a completion frees a busy
// core (Release), a throttle or resume moves a live chip's demand with
// no core freed (AddDemand), a grant rises or falls, a tenant arrives
// at a random place in the queue, a live chip is Reset (dead or
// quarantined) or an offline one Rebuilt, the clock steps, a chip's
// breaker is asked a few times, or it sees a failure or a success. got
// and want are equal when it is called, so the draws read got.
func changeBetweenTicks(src *rng.Source, got, want *passState) {
	both := [2]*passState{got, want}
	for range []int{0, 0, 1, 1, 1, 2, 3}[src.Intn(7)] {
		i := src.Intn(len(got.placer.Chips))
		ch := &got.placer.Chips[i]
		live := !ch.Quarantined && !ch.Offline
		switch src.Intn(9) {
		case 0:
			j, cdyn := src.Intn(len(ch.Cores)), 0.3+src.Float64()
			if live && ch.busy[j] {
				for _, s := range both {
					s.placer.Release(i, j, cdyn)
				}
			}
		case 1:
			delta := (2*src.Float64() - 1) * (ch.SpanW + 0.5)
			if live {
				for _, s := range both {
					s.placer.AddDemand(i, delta)
				}
			}
		case 2:
			delta := (2*src.Float64() - 1) * (ch.SpanW + 0.5)
			for _, s := range both {
				s.allow[i] += delta
			}
		case 3:
			k, cdyn := src.Intn(len(got.queue)+1), 1.5*src.Float64()
			for _, s := range both {
				s.queue = slices.Insert(s.queue, k, cdyn)
			}
		case 4:
			dead := src.Intn(4) == 0
			if live {
				for _, s := range both {
					s.placer.Reset(i, dead)
				}
			}
		case 5:
			idle, span := 40+20*src.Float64(), 20*src.Float64()
			if src.Intn(2) == 0 {
				span = ch.SpanW
			}
			var cores []PlacerCore
			for j := range 1 + src.Intn(8) {
				cores = append(cores, PlacerCore{Label: fmt.Sprintf("C%d", j), Quarantined: src.Intn(5) == 0,
					Slope: -1 - 2*src.Float64(), Intercept: 4000 + 300*src.Float64()})
			}
			if ch.Offline && !ch.Quarantined {
				for _, s := range both {
					s.placer.Rebuild(i, idle, span, slices.Clone(cores))
				}
			}
		case 6:
			step := int64(1 + src.Intn(4))
			for _, s := range both {
				*s.clock += step
			}
		case 7:
			calls := 1 + src.Intn(6)
			for _, s := range both {
				for range calls {
					s.placer.Chips[i].Breaker.Allow()
				}
			}
		case 8:
			fail := src.Intn(2) == 0
			for _, s := range both {
				if fail {
					s.placer.Chips[i].Breaker.Failure()
				} else {
					s.placer.Chips[i].Breaker.Success()
				}
			}
		}
	}
}

// samePlacers fails t unless the two states' chips agree: demand bits,
// free cores, busy cores, flags and spans, and their breakers'
// guard_breaker_* series: state, rejections and transitions.
func samePlacers(t *testing.T, seed uint64, tick int64, got, want *passState) {
	t.Helper()
	for i := range got.placer.Chips {
		g, w := &got.placer.Chips[i], &want.placer.Chips[i]
		if math.Float64bits(g.demand) != math.Float64bits(w.demand) || g.freeCores != w.freeCores ||
			!slices.Equal(g.busy, w.busy) || g.Quarantined != w.Quarantined || g.Offline != w.Offline ||
			math.Float64bits(g.SpanW) != math.Float64bits(w.SpanW) {
			t.Fatalf("seed %d tick %d chip %d: placer state %+v, full scan %+v", seed, tick, i, *g, *w)
		}
	}
	if g, w := got.reg.SnapshotJSON(), want.reg.SnapshotJSON(); !bytes.Equal(g, w) {
		t.Fatalf("seed %d tick %d: breaker series\n%s\nfull scan\n%s", seed, tick, g, w)
	}
}

// TestPlacePassMatchesFullScan drives random placer states through
// sequences of up to eight ticks of the placement pass and of a full
// scan. Survivors carry to the next tick as the sim carries them, and
// between ticks both states take the same completions, throttles and
// resumes, grant steps, arrivals, Resets and Rebuilds, clock steps and
// breaker calls and transitions (changeBetweenTicks). At every tick it
// requires the same attempts, deferral counts, placer state and breaker
// states and rejections, and after the last tick the same answers to
// later breaker calls. The states include breakers that alone refuse an
// otherwise admissible chip and breakers that half-open within a pass. It logs how often a pass was carried whole and how many
// attempts a scanned pass skipped, with a floor on each.
func TestPlacePassMatchesFullScan(t *testing.T) {
	passes, carried, carriedAttempts, skipped, breakerAlone := 0, 0, 0, 0, 0
	for seed := uint64(1); seed <= 3000; seed++ {
		got, want := randomPassState(seed), randomPassState(seed)
		changes := rng.New(seed).Split("between ticks")
		pass := newPlacePass(len(got.placer.Chips))
		*got.clock, *want.clock = got.start, want.start
		ticks := int64(1 + seed%8)
		for tick := int64(0); tick < ticks; tick++ {
			if tick > 0 {
				*got.clock++
				*want.clock++
				changeBetweenTicks(changes, &got, &want)
			}
			passes++
			var gotA, wantA []attempt
			var gotStill, wantStill []float64
			if pass.carry(got.placer, got.allow, len(got.queue)) {
				carried++
				carriedAttempts += len(got.queue)
				for range got.queue {
					gotA = append(gotA, attempt{})
				}
				gotStill = got.queue
			} else {
				for _, c := range got.queue {
					if c >= pass.minFail {
						skipped++
					}
					ci, cj, pred, ok := pass.place(got.placer, c, got.allow)
					gotA = append(gotA, attempt{ci, cj, math.Float64bits(pred), ok})
					if !ok {
						gotStill = append(gotStill, c)
					}
				}
				pass.end(got.placer, got.allow, len(gotStill))
			}
			for _, c := range want.queue {
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
			samePlacers(t, seed, tick, &got, &want)
			got.queue, want.queue = gotStill, wantStill
		}
		// Equal clocks answer the next calls alike.
		for i := range got.placer.Chips {
			g, w := got.placer.Chips[i].Breaker, want.placer.Chips[i].Breaker
			for k := 0; k < 6; k++ {
				if ga, wa := g.Allow(), w.Allow(); ga != wa {
					t.Fatalf("seed %d chip %d: call %d after the passes admits %v, full scan %v", seed, i, k, ga, wa)
				}
			}
		}
	}
	t.Logf("%d of %d passes carried whole (%d attempts), %d attempts skipped in scanned passes, %d failures with a chip refused by its breaker alone",
		carried, passes, carriedAttempts, skipped, breakerAlone)
	if carried < 2000 || skipped < 1000 || breakerAlone < 100 {
		t.Fatalf("%d passes carried, %d attempts skipped and %d failures had a chip refused by its breaker alone, want at least 2000, 1000 and 100",
			carried, skipped, breakerAlone)
	}
}
