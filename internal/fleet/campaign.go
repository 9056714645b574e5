package fleet

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Campaign builders for the common sweep shapes. Every per-job seed is
// fixed at build time — the silicon seeds by position, the fault seeds
// by a labelled rng split on the job ID — so the specs are fully
// determined before any worker runs and identical builder inputs
// always produce identical campaigns (and therefore identical hashes,
// cache entries, and merged results).

// CheckSeedRange rejects a range of n seeds start, start+1, …,
// start+n−1 that wraps past 2^64−1, where job n−1 would silently take a
// small seed again (seed 0 is the reference server, and a wrapped run
// seed replays another job). name is the option that set start.
func CheckSeedRange(name string, start uint64, n int) error {
	if n > 1 && start > math.MaxUint64-uint64(n-1) {
		return fmt.Errorf("%s %d: a range of %d seeds from it wraps past 2^64-1", name, start, n)
	}
	return nil
}

// MonteCarlo builds the ext-montecarlo population campaign: n servers
// manufactured from silicon seeds start..start+n-1, each deployed with
// the trial seed equal to its silicon seed (the pairing the suite's
// sequential study used, so the fleet port reproduces it exactly).
func MonteCarlo(n int, start uint64) *Campaign {
	c := &Campaign{Name: fmt.Sprintf("montecarlo-n%d-s%d", n, start)}
	for i := 0; i < n; i++ {
		seed := start + uint64(i)
		c.Jobs = append(c.Jobs, Job{
			ID:          fmt.Sprintf("mc-%04d", seed),
			Kind:        KindMonteCarlo,
			SiliconSeed: seed,
			Seed:        seed,
		})
	}
	return c
}

// TuneSweep builds a deployment campaign over n generated servers,
// optionally under a fault profile. Each job's fault stream is an
// independent rng split of faultSeed by job ID, so one flaky server
// never perturbs another's fault sequence.
func TuneSweep(n int, start uint64, rollback int, faultProfile string, faultSeed uint64) *Campaign {
	name := fmt.Sprintf("tune-n%d-s%d", n, start)
	if faultProfile != "" {
		name += "-faulted"
	}
	c := &Campaign{Name: name}
	for i := 0; i < n; i++ {
		seed := start + uint64(i)
		j := Job{
			ID:          fmt.Sprintf("tune-%04d", seed),
			Kind:        KindTune,
			SiliconSeed: seed,
			Seed:        seed,
			Rollback:    rollback,
		}
		j.FaultProfile, j.FaultSeed = splitFaultSeed(j.ID, faultProfile, faultSeed)
		c.Jobs = append(c.Jobs, j)
	}
	return c
}

// CharacterizeSweep builds a characterization campaign over n
// generated servers with the given trial count (0 = the stage
// default), optionally under a fault profile.
func CharacterizeSweep(n int, start uint64, trials int, faultProfile string, faultSeed uint64) *Campaign {
	name := fmt.Sprintf("charact-n%d-s%d", n, start)
	if faultProfile != "" {
		name += "-faulted"
	}
	c := &Campaign{Name: name}
	for i := 0; i < n; i++ {
		seed := start + uint64(i)
		j := Job{
			ID:          fmt.Sprintf("charact-%04d", seed),
			Kind:        KindCharacterize,
			SiliconSeed: seed,
			Seed:        seed,
			Trials:      trials,
		}
		j.FaultProfile, j.FaultSeed = splitFaultSeed(j.ID, faultProfile, faultSeed)
		c.Jobs = append(c.Jobs, j)
	}
	return c
}

// LifetimeSweep builds a lifetime campaign over n servers: silicon
// seeds start..start+n-1, each simulated for the given horizon. A
// start of 0 puts the paper-calibrated reference server first (silicon
// seed 0 selects it), which is what the safety CI gate runs. The trial
// seed equals the silicon seed except for the reference server, which
// takes the lifetime stage's default seed.
func LifetimeSweep(n int, start uint64, years int, sentinelOff bool) *Campaign {
	name := fmt.Sprintf("lifetime-n%d-s%d-y%d", n, start, years)
	if sentinelOff {
		name += "-nosentinel"
	}
	c := &Campaign{Name: name}
	for i := 0; i < n; i++ {
		seed := start + uint64(i)
		c.Jobs = append(c.Jobs, Job{
			ID:          fmt.Sprintf("lifetime-%04d", seed),
			Kind:        KindLifetime,
			SiliconSeed: seed,
			Seed:        seed,
			Years:       years,
			SentinelOff: sentinelOff,
		})
	}
	return c
}

// splitFaultSeed derives a job's independent fault seed from the
// campaign-level base seed via a labelled rng split.
func splitFaultSeed(jobID, faultProfile string, faultSeed uint64) (string, uint64) {
	if faultProfile == "" {
		return "", 0
	}
	if faultSeed == 0 {
		faultSeed = 1
	}
	seed := rng.New(faultSeed).Split("fleet/" + jobID).Uint64()
	if seed == 0 {
		seed = 1 // 0 means "default" in the job spec; keep the split explicit
	}
	return faultProfile, seed
}
