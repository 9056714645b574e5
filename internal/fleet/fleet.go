// Package fleet is the deterministic parallel experiment engine: it
// fans a campaign of independent jobs — characterize, tune, or
// Monte-Carlo deployment runs over generated or reference servers —
// across a bounded worker pool and merges the results in canonical job
// order, so the merged output is byte-identical whether the campaign
// ran on 1 worker or 16 and regardless of goroutine scheduling.
//
// Real post-silicon tuning is a statistical campaign over many dies,
// and power-management studies evaluate controllers against fleets of
// emulated machines; this package gives the reproduction that shape
// without giving up the repository's bit-reproducibility invariants:
//
//   - Every job is a self-contained, seeded spec (Job). Workers share
//     no simulation state; each job builds its own machine, RNG
//     streams, and optional fault injector from the spec alone, so
//     execution order cannot leak into results.
//   - Results are merged by job index, never by completion order, and
//     serialized with fixed field order (WriteJSON), so the merged
//     artifact is byte-stable across worker counts.
//   - Results are content-addressed: a job's spec hash names its cache
//     entry on disk, so re-running a campaign skips completed jobs, and
//     a killed campaign rerun on the same directory finishes with
//     byte-identical final output.
//   - Observability rides the obs plane: dispatch/completion/cache/
//     failure counters, a live worker-occupancy gauge (zero by the
//     time a snapshot is exported, so snapshots stay byte-identical
//     across worker counts), and per-job spans emitted in canonical
//     order on the logical time axis after the pool drains.
//
// The package is in atmlint's detflow scope: no wall clock, no ambient
// randomness — the only entropy is the seeds in the job specs.
package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/obs"
)

// Kind selects what a job runs.
type Kind string

// The supported job kinds.
const (
	// KindCharacterize runs the Sec. III-B characterization
	// methodology and reports the Table I limits.
	KindCharacterize Kind = "characterize"
	// KindTune runs the Sec. VII-A stress-test deployment and reports
	// the per-core deployed configuration.
	KindTune Kind = "tune"
	// KindMonteCarlo is the ext-montecarlo draw: manufacture a server,
	// deploy it, and report the variation the paper measures on its
	// two chips (idle-limit spread, speed differential, fastest core).
	KindMonteCarlo Kind = "montecarlo"
	// KindLifetime simulates years of field operation on a fine-tuned
	// server: NBTI/HCI drift erodes the tuned margins while the closed-
	// loop sentinel (unless disabled) keeps the configuration safe.
	KindLifetime Kind = "lifetime"
	// KindDCProvision is the datacenter intake pass: build the node's
	// server, stress-test deploy it, calibrate the per-core Eq. 1
	// frequency predictors and measure the per-chip power envelope —
	// everything internal/dc's budget hierarchy and global scheduler
	// need to operate the node.
	KindDCProvision Kind = "dcprovision"
)

// validKind reports whether k is a supported job kind.
func validKind(k Kind) bool {
	switch k {
	case KindCharacterize, KindTune, KindMonteCarlo, KindLifetime, KindDCProvision:
		return true
	}
	return false
}

// Job is one self-contained experiment spec. The zero values select
// the stage defaults, so a Job serializes small and hashes stably.
type Job struct {
	// ID names the job inside its campaign; it must be unique and
	// non-empty. Merged results are keyed and ordered by the campaign's
	// job order, and the ID is how consumers find a row.
	ID string `json:"id"`
	// Kind selects the experiment.
	Kind Kind `json:"kind"`
	// SiliconSeed manufactures the server from the Monte-Carlo process
	// model; 0 runs on the paper-calibrated reference profile
	// (montecarlo and dcprovision jobs require a non-zero seed).
	SiliconSeed uint64 `json:"silicon_seed,omitempty"`
	// Chips overrides the generated server's processor count (0 = the
	// generator default of 2; dc nodes are single-chip servers).
	// Requires a non-zero SiliconSeed.
	Chips int `json:"chips,omitempty"`
	// Seed drives the stage's stochastic trials (charact/tuning
	// Options.Seed; 0 = stage default).
	Seed uint64 `json:"seed,omitempty"`
	// Trials overrides the characterization trial count (0 = default).
	Trials int `json:"trials,omitempty"`
	// Rollback is the tune stage's extra safety margin.
	Rollback int `json:"rollback,omitempty"`
	// FaultProfile, when non-empty, arms deterministic fault injection
	// for the job (a fault.ParseProfile spec). Lifetime jobs take none.
	FaultProfile string `json:"fault_profile,omitempty"`
	// FaultSeed seeds the fault streams (0 = 1, the injector default).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Years is the lifetime job's simulated horizon (0 = the stage
	// default of three years).
	Years int `json:"years,omitempty"`
	// SentinelOff disables the lifetime job's margin sentinel — the
	// control arm that demonstrates drift without supervision.
	SentinelOff bool `json:"sentinel_off,omitempty"`
	// OpsProfile/OpsSeed stamp a dcprovision job with the operational
	// fault scenario its campaign will run after intake (a canonical
	// dc.ParseOpsProfile spec; opaque to the engine). The stage itself
	// ignores them — they exist so the campaign_hash the dc result
	// prints, and the job's cache key, name the whole scenario. Both
	// omitempty: zero values hash identically to pre-ops specs.
	OpsProfile string `json:"ops_profile,omitempty"`
	OpsSeed    uint64 `json:"ops_seed,omitempty"`
}

// specVersion versions the job hash: bump it when a change to the job
// model or a stage invalidates previously cached results.
const specVersion = "fleet/v1"

// Hash returns the job's content address: a hex SHA-256 over the
// versioned canonical spec encoding. Two jobs hash equal exactly when
// the engine would compute the same result for them.
func (j Job) Hash() string {
	spec, err := json.Marshal(j)
	if err != nil {
		// A Job is plain data; Marshal cannot fail on it. Keep the
		// signature clean anyway.
		spec = []byte(j.ID)
	}
	h := sha256.New()
	io.WriteString(h, specVersion)
	h.Write([]byte{0})
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil))
}

// Validate checks a single job spec.
func (j Job) Validate() error {
	if j.ID == "" {
		return errors.New("fleet: job with empty ID")
	}
	if !validKind(j.Kind) {
		return fmt.Errorf("fleet: job %s: unknown kind %q", j.ID, j.Kind)
	}
	if (j.Kind == KindMonteCarlo || j.Kind == KindDCProvision) && j.SiliconSeed == 0 {
		return fmt.Errorf("fleet: job %s: %s requires a non-zero silicon seed", j.ID, j.Kind)
	}
	if j.Chips != 0 && j.SiliconSeed == 0 {
		return fmt.Errorf("fleet: job %s: chip-count override requires a non-zero silicon seed", j.ID)
	}
	if j.Kind == KindLifetime && j.FaultProfile != "" {
		// lifetime.Run builds its own machine from the profile, so the
		// injector buildServer arms would never reach its trials.
		return fmt.Errorf("fleet: job %s: a %s job takes no fault profile", j.ID, j.Kind)
	}
	return nil
}

// Campaign is an ordered set of independent jobs. The job order is the
// canonical merge order of the results.
type Campaign struct {
	Name string `json:"name"`
	Jobs []Job  `json:"jobs"`
}

// Validate checks the campaign: every job valid, every ID unique.
func (c *Campaign) Validate() error {
	if c == nil || len(c.Jobs) == 0 {
		return errors.New("fleet: empty campaign")
	}
	seen := make(map[string]bool, len(c.Jobs))
	for _, j := range c.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("fleet: duplicate job ID %s", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// Hash content-addresses the whole campaign (name, job order, and
// every job spec) — the campaign_hash of the merged result.
func (c *Campaign) Hash() string {
	h := sha256.New()
	io.WriteString(h, specVersion)
	h.Write([]byte{0})
	io.WriteString(h, c.Name)
	for _, j := range c.Jobs {
		h.Write([]byte{0})
		io.WriteString(h, j.Hash())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Result is one job's outcome. Exactly one of Payload and Err is set.
type Result struct {
	JobID string `json:"job_id"`
	Kind  Kind   `json:"kind"`
	// Err is the job's deterministic failure message ("" on success).
	// Failed jobs are not cached, so a re-run retries them.
	Err string `json:"err,omitempty"`
	// Payload is the kind-specific result document (see jobs.go for
	// the schemas and the typed decoders).
	Payload json.RawMessage `json:"payload,omitempty"`
	// Cached marks a result served from the content-addressed cache.
	// It is provenance, not content: it is excluded from the merged
	// serialization so rerun and uninterrupted campaigns produce
	// byte-identical final output.
	Cached bool `json:"-"`
}

// CampaignResult is the merged outcome in canonical job order.
type CampaignResult struct {
	Name         string   `json:"name"`
	CampaignHash string   `json:"campaign_hash"`
	Results      []Result `json:"results"`
}

// Failed returns the IDs of failed jobs, in job order.
func (r *CampaignResult) Failed() []string {
	var out []string
	for _, res := range r.Results {
		if res.Err != "" {
			out = append(out, res.JobID)
		}
	}
	return out
}

// CachedCount returns how many results were served from the cache.
func (r *CampaignResult) CachedCount() int {
	n := 0
	for _, res := range r.Results {
		if res.Cached {
			n++
		}
	}
	return n
}

// WriteJSON writes the merged result as one JSON document with a
// trailing newline — byte-identical across worker counts and across
// cached, rerun, and fresh runs of the same campaign.
func (r *CampaignResult) WriteJSON(w io.Writer) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		return err
	}
	_, err := w.Write(b.Bytes())
	return err
}

// Options configures a campaign run.
type Options struct {
	// Workers bounds the worker pool. <=0 runs single-worker; the pool
	// never exceeds the job count. The merged output is byte-identical
	// for every value.
	Workers int
	// CacheDir, when non-empty, enables the content-addressed result
	// cache in that directory (created if missing). Completed jobs
	// found there are served without re-execution, so rerunning a
	// killed campaign on the same directory finishes it.
	CacheDir string
	// Obs, when non-nil, collects fleet counters (dispatched,
	// completed, cached, failed), the worker-occupancy gauge, and the
	// configured-pool histogram. Nil disables collection.
	Obs *obs.Registry
	// Trace, when non-nil, records one span per job on the logical
	// time axis, emitted in canonical job order after the pool drains
	// so the trace is byte-identical across worker counts.
	Trace *obs.Tracer
}

// Run executes the campaign and merges the results in job order. A
// failed job is recorded in its Result and does not abort the
// campaign; Run itself returns an error only for spec or
// infrastructure (cache I/O) failures.
func Run(c *Campaign, o Options) (*CampaignResult, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Workers > len(c.Jobs) {
		o.Workers = len(c.Jobs)
	}
	var cache *diskCache
	if o.CacheDir != "" {
		var err error
		cache, err = openCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
	}

	var (
		dispatched = o.Obs.Counter("fleet_jobs_dispatched_total")
		completed  = o.Obs.Counter("fleet_jobs_completed_total")
		cachedHits = o.Obs.Counter("fleet_jobs_cached_total")
		failed     = o.Obs.Counter("fleet_jobs_failed_total")
		occupancy  = o.Obs.Gauge("fleet_worker_occupancy")
		panics     = o.Obs.Counter("fleet_job_panics_total")
	)

	results := make([]Result, len(c.Jobs))
	var pending []int
	for i, j := range c.Jobs {
		if cache != nil {
			if payload, ok := cache.lookup(j); ok {
				results[i] = Result{JobID: j.ID, Kind: j.Kind, Payload: payload, Cached: true}
				cachedHits.Inc()
				continue
			}
		}
		pending = append(pending, i)
	}

	// The pool: workers drain a channel of job indices. Each job is
	// hermetic, so the only shared state is the results slice (disjoint
	// indices), the cache directory (one entry file per job), and the
	// obs handles (atomic).
	var (
		wg       sync.WaitGroup
		idx      = make(chan int)
		infraMu  sync.Mutex
		infraErr error
	)
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				job := c.Jobs[i]
				dispatched.Inc()
				occupancy.Add(1)
				payload, err := runGuarded(job, panics)
				occupancy.Add(-1)
				if err != nil {
					failed.Inc()
					results[i] = Result{JobID: job.ID, Kind: job.Kind, Err: err.Error()}
					continue
				}
				completed.Inc()
				results[i] = Result{JobID: job.ID, Kind: job.Kind, Payload: payload}
				if cache != nil {
					if err := cache.store(job, payload); err != nil {
						infraMu.Lock()
						infraErr = errors.Join(infraErr, err)
						infraMu.Unlock()
					}
				}
			}
		}()
	}
	for _, i := range pending {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if infraErr != nil {
		return nil, infraErr
	}

	// Per-job spans in canonical order on the logical axis: job i is
	// the unit interval starting at 2i, so the trace file is identical
	// for every worker count and interleaving.
	for i, res := range results {
		status := "ok"
		switch {
		case res.Err != "":
			status = "failed"
		case res.Cached:
			status = "cached"
		}
		o.Trace.Complete("fleet", res.JobID, "fleet/"+string(res.Kind),
			int64(2*i), 1, "status", status)
	}

	return &CampaignResult{Name: c.Name, CampaignHash: c.Hash(), Results: results}, nil
}
