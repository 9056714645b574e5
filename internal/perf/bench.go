package perf

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// Stage is one benchmarkable unit: a hotpath kernel, an end-to-end
// tuning stage, a fleet campaign, a datacenter hot path, or a lifetime
// epoch's cost. Iteration counts are fixed per stage — never
// time-calibrated — so the canonical stage rows of the emitted
// artifact are pure functions of the code and the plan, and two runs
// on different machines differ only in the timing section.
type Stage struct {
	// Name keys the stage in artifacts and baselines (snake_case).
	Name string
	// Group is the selection bucket, one of StageGroups.
	Group string
	// Note is a one-line human description carried into the artifact.
	Note string
	// Iters is how many ops one measured pass runs.
	Iters int
	// AllocStable marks a single-goroutine stage whose allocs/op is
	// deterministic and gated against the baseline. Parallel stages
	// (goroutine scheduling perturbs allocation counts) report allocs
	// in the timing section instead, and carry -1 in the canonical row.
	AllocStable bool
	// Run performs iters ops and returns how many kernel trials they
	// executed in total (== iters for the kernel stages; the e2e stages
	// report the trial counters they drove).
	Run func(iters int) (trials int64, err error)
}

// StageResult is one measured stage. TrialsPerOp and (for alloc-stable
// stages) AllocsPerOp are deterministic; NSPerOp, TrialsPerSec, and
// the unstable-allocs reading are timing.
type StageResult struct {
	Stage        Stage
	TrialsPerOp  int64
	AllocsPerOp  int64
	NSPerOp      int64
	TrialsPerSec float64
}

// allocRounds is how many times the allocation pass repeats; the
// minimum over the rounds is reported, de-noising one-off runtime
// internal allocations that survive the warmup.
const allocRounds = 3

// timeRounds is how many timed passes run; the minimum elapsed is
// reported. Minimum-of-N is the standard microbenchmark de-noiser: a
// preempted round can only be slower than the true cost, never faster,
// so the min is the most repeatable estimate a shared runner can give
// and keeps the CI tolerance band honest.
const timeRounds = 3

// RunStage measures one stage: a warmup op, an allocation pass (GC
// off, and single-P for alloc-stable stages, so the count is exact),
// then the timed pass at full parallelism.
func RunStage(st Stage) (StageResult, error) {
	if st.Iters <= 0 {
		return StageResult{}, fmt.Errorf("perf: stage %s: non-positive iters %d", st.Name, st.Iters)
	}
	if _, err := st.Run(1); err != nil { // warmup: pools, lazy init
		return StageResult{}, fmt.Errorf("perf: stage %s: %w", st.Name, err)
	}

	allocs, err := measureAllocs(st)
	if err != nil {
		return StageResult{}, fmt.Errorf("perf: stage %s: %w", st.Name, err)
	}

	runtime.GC()
	var trials, elapsed int64
	for round := 0; round < timeRounds; round++ {
		began := nowNS()
		got, err := st.Run(st.Iters)
		took := nowNS() - began
		if err != nil {
			return StageResult{}, fmt.Errorf("perf: stage %s: %w", st.Name, err)
		}
		if round == 0 {
			trials = got
		} else if got != trials {
			// The trial count is canonical: a stage that returns a
			// different count on a repeat run is nondeterministic, and
			// its artifact rows would be meaningless.
			return StageResult{}, fmt.Errorf("perf: stage %s: trial count diverged across rounds: %d then %d",
				st.Name, trials, got)
		}
		if round == 0 || took < elapsed {
			elapsed = took
		}
	}
	if elapsed < 1 {
		elapsed = 1
	}
	res := StageResult{
		Stage:       st,
		TrialsPerOp: trials / int64(st.Iters),
		AllocsPerOp: allocs,
		NSPerOp:     elapsed / int64(st.Iters),
	}
	res.TrialsPerSec = float64(trials) * 1e9 / float64(elapsed)
	return res, nil
}

// measureAllocs counts allocations per op with the collector paused.
// Alloc-stable stages additionally pin to one P so scheduler-dependent
// allocations cannot leak into the canonical count.
func measureAllocs(st Stage) (int64, error) {
	iters := st.Iters
	if iters > 100 {
		iters = 100 // allocation counts don't need the full timing plan
	}
	if st.AllocStable {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()

	best := int64(-1)
	var ms0, ms1 runtime.MemStats
	for round := 0; round < allocRounds; round++ {
		runtime.ReadMemStats(&ms0)
		if _, err := st.Run(iters); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms1)
		got := int64(ms1.Mallocs-ms0.Mallocs) / int64(iters)
		if best < 0 || got < best {
			best = got
		}
	}
	return best, nil
}

// RunStages measures every stage in order, failing fast on the first
// broken one (a broken benchmark is a broken build, not a data point).
func RunStages(stages []Stage) ([]StageResult, error) {
	out := make([]StageResult, 0, len(stages))
	for _, st := range stages {
		r, err := RunStage(st)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
