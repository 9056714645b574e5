package lifetime

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/chip"
	"repro/internal/rng"
	"repro/internal/silicon"
	"repro/internal/workload"
)

func mustJSON(t *testing.T, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestRunIsDeterministic pins the replay contract: the Result is a pure
// function of (profile, Options), byte-identical across runs. The fleet
// cache, the CI two-run identity gate, and the rerun after a kill all
// stand on this.
func TestRunIsDeterministic(t *testing.T) {
	opts := Options{Years: 3, Seed: 1}
	a, err := Run(silicon.Reference(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(silicon.Reference(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := mustJSON(t, a), mustJSON(t, b)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed, different results:\n%s\n%s", ja, jb)
	}

	// A different seed must explore a different trajectory — otherwise
	// the determinism above is vacuous.
	c, err := Run(silicon.Reference(), Options{Years: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ja, mustJSON(t, c)) {
		t.Fatal("seeds 1 and 2 produced identical results")
	}
}

// TestSentinelKeepsFineTunedChipSafe is the headline invariant: three
// simulated years of drift on a fine-tuned reference chip complete
// with zero timing failures when the sentinel is watching.
func TestSentinelKeepsFineTunedChipSafe(t *testing.T) {
	res, err := Run(silicon.Reference(), Options{Years: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safe || res.Failures != 0 {
		t.Fatalf("verdict %s with %d failures, want SAFE with 0", res.Verdict(), res.Failures)
	}
	if res.StepBacks == 0 {
		t.Fatal("no step-backs over 3 years: drift is not exercising the sentinel")
	}
	if res.Retunes == 0 {
		t.Fatal("no re-tunes over 3 years: the retune rung (and its chaos crash point) is unreachable")
	}
	if res.Quarantines != 0 {
		t.Fatalf("%d healthy-drift cores quarantined; the ladder is miscalibrated", res.Quarantines)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("empty timeline despite interventions")
	}
	if !sort.SliceIsSorted(res.Timeline, func(a, b int) bool {
		return res.Timeline[a].Epoch < res.Timeline[b].Epoch
	}) {
		t.Fatal("timeline out of simulated-time order")
	}
	for _, c := range res.Cores {
		if c.AgeFrac <= 0 {
			t.Fatalf("%s: zero aging over 3 years", c.Core)
		}
		if c.EndReduction > c.StartReduction {
			t.Fatalf("%s: reduction rose %d -> %d under pure erosion", c.Core, c.StartReduction, c.EndReduction)
		}
	}
}

// TestSentinelOffDriftedChipFails is the control arm: the same seed
// with the sentinel disabled must take timing failures, demonstrating
// the day-one fine-tuned configuration is not safe to leave alone.
func TestSentinelOffDriftedChipFails(t *testing.T) {
	res, err := Run(silicon.Reference(), Options{Years: 3, Seed: 1, SentinelOff: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Safe || res.Failures == 0 {
		t.Fatalf("verdict %s with %d failures, want UNSAFE with > 0", res.Verdict(), res.Failures)
	}
	if res.StepBacks+res.Retunes+res.Statics+res.Quarantines != 0 {
		t.Fatal("sentinel-off run recorded interventions")
	}
	if !res.TimelineTruncated {
		t.Fatalf("expected the %d-entry timeline cap to truncate a %d-failure run", timelineCap, res.Failures)
	}
}

// TestRunLeavesCallerProfileUntouched: Run clones before aging; the
// caller's profile — often the shared reference — must stay pristine.
func TestRunLeavesCallerProfileUntouched(t *testing.T) {
	prof := silicon.Reference()
	before := prof.Clone()
	if _, err := Run(prof, Options{Years: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(prof, before) {
		t.Fatal("Run mutated the caller's profile")
	}
}

// TestOverlayActivityGatesHCI: the overlay's HCI term accrues only on
// active cores, so a core that works ages faster than one that idles.
func TestOverlayActivityGatesHCI(t *testing.T) {
	newMachine := func() *chip.Machine {
		m, err := chip.New(silicon.Reference().Clone(), chip.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	run := func(workFirst bool) float64 {
		m := newMachine()
		ov := NewOverlay(m, Params{}, 1, rng.New(9).Split("lifetime/drift"))
		n := len(m.AllCores())
		mask := make([]bool, n)
		mask[0] = workFirst
		for h := 0.0; h < HoursPerYear; h += 6 {
			ov.Advance(6, mask)
		}
		return ov.CoreAge(0)
	}
	busy, idle := run(true), run(false)
	if busy <= idle {
		t.Fatalf("active core aged %.5f, idle %.5f; HCI must charge for activity", busy, idle)
	}
	if idle <= 0 {
		t.Fatal("idle core did not age at all; NBTI ages regardless of activity")
	}
}

// TestOverlayAmbientDeterminism: the ambient trace (cycles plus seeded
// excursions) replays bit-for-bit for a given seed.
func TestOverlayAmbientDeterminism(t *testing.T) {
	trace := func(seed uint64) []float64 {
		m, err := chip.New(silicon.Reference().Clone(), chip.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ov := NewOverlay(m, Params{}, 3, rng.New(seed).Split("lifetime/drift"))
		var out []float64
		for h := 0.0; h < 3*HoursPerYear; h += 97 {
			out = append(out, ov.AmbientAt(h))
		}
		return out
	}
	if !reflect.DeepEqual(trace(5), trace(5)) {
		t.Fatal("same seed, different ambient trace")
	}
	if reflect.DeepEqual(trace(5), trace(6)) {
		t.Fatal("different seeds, identical ambient trace: excursions are not seeded")
	}
}

// TestOverlayRefreshesAgedProfiles: after every Advance, each aged core
// gives the same requirements, limits and failure probabilities as a
// Clone of it that called Refresh — the overlay's in-place rewrites
// never leave a stale cached uBench limit behind.
func TestOverlayRefreshesAgedProfiles(t *testing.T) {
	m, err := chip.New(silicon.Reference().Clone(), chip.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const epochs = 50
	ov := NewOverlay(m, Params{}, 5, rng.New(3).Split("lifetime/drift"))
	active := make([]bool, len(m.AllCores()))
	for i := range active {
		active[i] = i%2 == 0
	}
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	workloads := workload.All()
	for e := 1; e <= epochs; e++ {
		ov.Advance(5*HoursPerYear/epochs, active)
		for _, core := range m.AllCores() {
			aged := core.Profile
			fresh := aged.Clone()
			fresh.Refresh()
			for _, w := range workloads {
				score := w.StressScore
				if got, want := aged.RequiredGuardPs(score), fresh.RequiredGuardPs(score); bits(float64(got)) != bits(float64(want)) {
					t.Fatalf("epoch %d: %s RequiredGuardPs(%s) = %v, refreshed clone %v", e, aged.Label, w.Name, got, want)
				}
				if got, want := aged.DeterministicLimit(score), fresh.DeterministicLimit(score); got != want {
					t.Fatalf("epoch %d: %s DeterministicLimit(%s) = %d, refreshed clone %d", e, aged.Label, w.Name, got, want)
				}
				for r := 0; r <= aged.MaxReduction(); r++ {
					got, err1 := aged.FailureProb(r, score)
					want, err2 := fresh.FailureProb(r, score)
					if err1 != nil || err2 != nil {
						t.Fatalf("epoch %d: %s FailureProb(%d, %s): %v / %v", e, aged.Label, r, w.Name, err1, err2)
					}
					if bits(got) != bits(want) {
						t.Fatalf("epoch %d: %s FailureProb(%d, %s) = %g, refreshed clone %g", e, aged.Label, r, w.Name, got, want)
					}
				}
			}
		}
	}
}

// TestRunRejectsBadHorizons: a horizon Run cannot step through is an
// error before any work runs, not a verdict over zero or negative
// epochs.
func TestRunRejectsBadHorizons(t *testing.T) {
	if res, err := Run(silicon.Reference(), Options{Years: -1}); err == nil {
		t.Errorf("negative years: Run returned %s over %d epoch(s), want an error", res.Verdict(), res.Epochs)
	}
}
