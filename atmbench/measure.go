package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// config is one workload run's settings.
type config struct {
	seed     uint64
	units    int
	setups   int
	traced   bool
	traceDir string
	// tamper, when non-nil, corrupts each unit's output before its
	// check runs; tests use it to prove a bad output fails the run.
	tamper func(output)
}

// bench is one benchmark workload.
type bench struct {
	name string
	// rate is the nominal units per second on the 2-vCPU reference
	// host. The unit count is seconds×rate (at least minUnits), fixed
	// before any timing, so every run of a seed does the same work
	// however fast the host runs.
	rate float64
	// setup builds every unit's inputs from the workload seed and runs
	// the workload's set-up checks. t is non-nil in the traced run.
	setup func(seed uint64, units int, t *tracer) (suite, error)
}

// minUnits keeps at least ten samples above unit_p90_ms.
const minUnits = 100

func (w *bench) unitCount(seconds int) int {
	n := int(float64(seconds)*w.rate + 0.5)
	if n < minUnits {
		n = minUnits
	}
	return n
}

// suite is one workload's prepared inputs.
type suite interface {
	// run executes unit i through the public atm facade. A non-nil t
	// marks a traced unit: the suite wraps its facade call in a span and
	// may attach public hooks that record the mix the unit ran.
	run(i int, t *tracer) (output, error)
	// replay times, from outside, the exported functions of the layers
	// traced unit i ran, on the mix it recorded. traced and plain are
	// the unit's traced and untraced costs.
	replay(i int, out output, traced, plain unitStats, t *tracer) (layerSample, error)
}

// output is one unit's result.
type output interface {
	// check validates the result's internal consistency.
	check() error
	// canonical returns the result's deterministic serialization.
	canonical() ([]byte, error)
	// count adds the unit's exact simulated statistics to c.
	count(c counts)
}

// counts are a run's exact simulated statistics, summed over units.
type counts map[string]int64

// layerSample is one replayed unit's per-layer numbers, in host time.
type layerSample struct {
	// metrics holds per-layer metric values by name.
	metrics map[string]float64
	// estimates is the traced unit's time per layer in ns, in report
	// order; the runner adds the residual.
	estimates []metric
	// scale converts the sample's host times to the reference host
	// speed; the runner sets it from the calibration samples around the
	// sampled unit.
	scale float64
}

// unitStats is one unit's host cost.
type unitStats struct {
	ns     int64
	bytes  uint64
	allocs uint64
}

// report is one workload run's outcome.
type report struct {
	workload string
	seed     uint64
	units    int
	setups   int
	traced   bool
	failed   int
	failures []string
	// metrics are the metrics of the final JSON line, in order: the
	// end-to-end ones untraced, the per-layer ones traced.
	metrics []metric
	// info are metrics printed but left out of the JSON line: fail_ratio
	// (0 on a correct tree; the line carries failed/attempted instead)
	// and the raw host-time readings behind the scaled timings.
	info []metric
	// estimates are the traced unit's per-layer times (ms), ending with
	// the residual; they sum to the trace.unit_ms metric.
	estimates []metric
	// implausible, when non-nil, says why the estimates cannot describe
	// a real unit (a negative share, or one layer above the whole unit).
	implausible error
	counts      counts
	digest      string
}

// maxFailures bounds the failure messages a report keeps.
const maxFailures = 5

func (r *report) fail(i int, err error) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf("unit %d: %v", i, err))
	}
}

// maxSamples bounds the traced units that also get an untraced twin run
// and a layer replay.
const maxSamples = 32

// allocSamples reads the runtime's cumulative heap allocation counters
// without stopping the world.
var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readAllocs() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// timeUnit runs unit i once and measures its host time and allocations.
func timeUnit(s suite, i int, t *tracer) (unitStats, output, error) {
	b0, o0 := readAllocs()
	start := time.Now()
	out, err := s.run(i, t)
	ns := time.Since(start).Nanoseconds()
	b1, o1 := readAllocs()
	return unitStats{ns: ns, bytes: b1 - b0, allocs: o1 - o0}, out, err
}

// measure runs one workload: repeated set-up, the timed loop of units
// with a calibration sample before each, the twin runs and replays of
// the sampled units (traced), and the output checks.
func measure(w *bench, cfg config) (*report, error) {
	n := cfg.units
	r := &report{workload: w.name, seed: cfg.seed, units: n, setups: cfg.setups, traced: cfg.traced, counts: counts{}}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}

	// Set-up, repeated: each builds every input from scratch and runs
	// one checked warm-up unit. setup_s is the median; the last set-up's
	// inputs are the ones measured.
	var s suite
	setupS := make([]float64, 0, cfg.setups)
	setupCal := make([]float64, 0, cfg.setups)
	for k := 0; k < cfg.setups; k++ {
		s = nil
		runtime.GC()
		var t *tracer
		if k == cfg.setups-1 {
			t = tr
		}
		if !cfg.traced {
			setupCal = append(setupCal, calibrateMean(calibrationWindow))
		}
		sp := t.begin("setup")
		start := time.Now()
		var err error
		s, err = w.setup(cfg.seed, n, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out, err := s.run(0, nil)
		if err == nil {
			err = out.check()
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up unit: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		t.end(sp, 1)
	}
	runtime.GC()

	stride := 1
	if cfg.traced && n > maxSamples {
		stride = n / maxSamples
	}
	var (
		digests      = make([][32]byte, n)
		unitNS       []float64
		calNS        []float64
		totalBytes   uint64
		completed    int
		last         output
		samples      []layerSample
		sampleUnit   []int
		sampleTraced []float64
		samplePlain  []float64
	)
	for i := 0; i < n; i++ {
		// Every unit follows one calibration sample, traced or not, so
		// both modes scale host times alike.
		calNS = append(calNS, float64(calibrate()))
		// A sampled unit also runs untraced, alternately before and
		// after its traced run, and then has its layers replayed.
		sampled := cfg.traced && i%stride == 0 && len(samples) < maxSamples
		var plain unitStats
		var plainOut output
		var plainErr error
		if sampled && len(samples)%2 == 0 {
			plain, plainOut, plainErr = timeUnit(s, i, nil)
		}
		if tr != nil {
			tr.sampling = sampled
		}
		sp := tr.begin("unit")
		u, out, err := timeUnit(s, i, tr)
		tr.end(sp, 1)
		if sampled && len(samples)%2 == 1 {
			plain, plainOut, plainErr = timeUnit(s, i, nil)
		}
		unitNS = append(unitNS, float64(u.ns))
		if err != nil {
			r.fail(i, err)
			continue
		}
		completed++
		totalBytes += u.bytes
		if cfg.tamper != nil {
			cfg.tamper(out)
		}
		if err := out.check(); err != nil {
			r.fail(i, err)
			continue
		}
		b, err := out.canonical()
		if err != nil {
			r.fail(i, err)
			continue
		}
		digests[i] = sha256.Sum256(b)
		out.count(r.counts)
		last = out
		if !sampled {
			continue
		}
		// The twin ran the same inputs untraced: tracing must not change
		// the output.
		if plainErr == nil {
			var pb []byte
			pb, plainErr = plainOut.canonical()
			if plainErr == nil && sha256.Sum256(pb) != digests[i] {
				plainErr = fmt.Errorf("untraced twin output differs from the traced run")
			}
		}
		if plainErr != nil {
			r.fail(i, plainErr)
			continue
		}
		ls, err := s.replay(i, out, u, plain, tr)
		if err != nil {
			return nil, fmt.Errorf("replay of unit %d: %w", i, err)
		}
		samples = append(samples, ls)
		sampleUnit = append(sampleUnit, i)
		sampleTraced = append(sampleTraced, float64(u.ns))
		samplePlain = append(samplePlain, float64(plain.ns))
	}

	// Live heap at the end of the timed loop, with the inputs and the
	// last output still referenced. sync.Pool caches (encoding/json keeps
	// a buffer the size of the last canonical output) survive one
	// collection, so they would count or not depending on whether the
	// runtime collected since the last unit; the second collection drops
	// them.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapLive := float64(ms.HeapAlloc) / 1e6
	runtime.KeepAlive(last)

	// Determinism: one unit, re-run in this process, must reproduce its
	// canonical output byte for byte.
	if j := int(cfg.seed % uint64(n)); digests[j] != ([32]byte{}) {
		out, err := s.run(j, nil)
		if err == nil {
			var b []byte
			b, err = out.canonical()
			if err == nil && sha256.Sum256(b) != digests[j] {
				err = fmt.Errorf("re-run output differs from the first run")
			}
		}
		if err != nil {
			r.fail(j, fmt.Errorf("re-run: %w", err))
		}
	}
	runtime.KeepAlive(s)

	h := sha256.New()
	for _, d := range digests {
		h.Write(d[:])
	}
	r.digest = hex.EncodeToString(h.Sum(nil))

	if !cfg.traced {
		// Timings at the reference host speed (see calibrate.go); the raw
		// host readings go to the info lines.
		scaledNS := scaleToReference(unitNS, calNS)
		scaledSetup := make([]float64, len(setupS))
		for k := range setupS {
			scaledSetup[k] = setupS[k] * calibrationRefNS / setupCal[k]
		}
		timings := func(prefix string, setups, ns []float64) []metric {
			ms := make([]float64, len(ns))
			total := 0.0
			for i := range ns {
				ms[i] = ns[i] / 1e6
				total += ns[i]
			}
			return []metric{
				{prefix + "setup_s", median(setups), "s"},
				{prefix + "units_per_s", float64(completed) / (total / 1e9), "1/s"},
				{prefix + "unit_p50_ms", quantile(ms, 0.5), "ms"},
				{prefix + "unit_p90_ms", quantile(ms, 0.9), "ms"},
			}
		}
		r.metrics = append(timings("", scaledSetup, scaledNS),
			metric{"alloc_mb_per_unit", float64(totalBytes) / 1e6 / float64(max(completed, 1)), "MB"},
			metric{"heap_live_mb", heapLive, "MB"})
		r.info = append([]metric{{"fail_ratio", float64(r.failed) / float64(n), "ratio"}},
			timings("host.", setupS, unitNS)...)
		r.info = append(r.info, metric{"host.speed", calibrationRefNS / median(calNS), "ratio"})
		return r, nil
	}

	// A sample's unit runs and replays are scaled by the calibration
	// window around its unit, as the untraced run scales that unit.
	for k, i := range sampleUnit {
		samples[k].scale = speedAt(calNS, i)
		sampleTraced[k] *= samples[k].scale
		samplePlain[k] *= samples[k].scale
	}
	r.metrics, r.estimates = layerReport(r.counts, n, samples, sampleTraced, samplePlain)
	r.implausible = checkAttribution(r.estimates)
	r.info = []metric{{"host.speed", calibrationRefNS / median(calNS), "ratio"}}
	if cfg.traceDir != "" {
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeFile(path, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// timeUnits are the units of per-layer metrics that hold host times.
var timeUnits = map[string]bool{"ns": true, "us": true, "ms": true}

// layerReport turns the traced run into the per-layer metrics and the
// attribution of the traced unit time. Exact counts cover every unit.
// Timings, the traced unit times among them, are scaled to the reference
// host speed per sample and reported as medians over the samples, so a
// pause that hits one replay moves nothing. The residual is the median
// unit time minus the layer estimates.
func layerReport(c counts, units int, samples []layerSample, traced, plain []float64) ([]metric, []metric) {
	values := exactMetrics(c, units)
	for _, def := range perLayer {
		var xs []float64
		for _, s := range samples {
			if v, ok := s.metrics[def.name]; ok {
				if timeUnits[def.unit] {
					v *= s.scale
				}
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			values[def.name] = median(xs)
		}
	}
	var estimates []metric
	unitMS := median(traced) / 1e6
	residual := unitMS
	if len(samples) > 0 {
		for k, e := range samples[0].estimates {
			xs := make([]float64, len(samples))
			for j, s := range samples {
				xs[j] = s.estimates[k].value * s.scale
			}
			ms := median(xs) / 1e6
			estimates = append(estimates, metric{e.name, ms, "ms"})
			residual -= ms
		}
		values["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	}
	estimates = append(estimates, metric{"residual", residual, "ms"})
	values["trace.unit_ms"] = unitMS
	values["trace.residual_ms"] = residual

	out := make([]metric, 0, len(perLayer))
	for _, def := range perLayer {
		out = append(out, metric{def.name, values[def.name], def.unit})
	}
	return out, estimates
}

// attributionSlack is how far a share may fall below zero, or rise above
// the whole unit, as a share of the unit time, before the attribution
// counts as implausible. The layers of a lifetime-sentinel unit cover
// about 93% of it, while two runs of one unit on the 2-vCPU reference
// host differ by up to 13%, so a strict sign test trips on noise alone.
const attributionSlack = 0.05

// checkAttribution rejects estimates no unit could have produced: a
// negative layer or residual, or one layer costing more than the whole
// unit, beyond attributionSlack. estimates end with the residual, so they
// sum to the unit time.
func checkAttribution(estimates []metric) error {
	total := 0.0
	for _, e := range estimates {
		total += e.value
	}
	slack := attributionSlack * total
	for _, e := range estimates {
		if e.value < -slack || e.value > total+slack {
			return fmt.Errorf("implausible attribution: %s is %.4f ms of a %.4f ms unit", e.name, e.value, total)
		}
	}
	return nil
}

// exactMetrics derives the exact per-layer metrics from the run's
// count totals. A layer the workload does not run reads 0.
func exactMetrics(c counts, units int) map[string]float64 {
	per := func(k string) float64 { return float64(c[k]) / float64(units) }
	ratio := func(num, den string) float64 {
		if c[den] == 0 {
			return 0
		}
		return float64(c[num]) / float64(c[den])
	}
	return map[string]float64{
		"charact.runs_per_unit":     per("charact.runs"),
		"charact.fail_run_ratio":    ratio("charact.failed_runs", "charact.runs"),
		"dc.place_attempts":         per("dc.place_attempts"),
		"dc.place_useful_ratio":     ratio("dc.placed", "dc.place_attempts"),
		"dc.migrations":             per("dc.migrations"),
		"dc.shed":                   per("dc.shed"),
		"dc.violations":             per("dc.violations"),
		"lifetime.epochs_per_unit":  per("lifetime.epochs"),
		"lifetime.trials_per_unit":  per("lifetime.trials"),
		"lifetime.retunes_per_unit": per("lifetime.retunes"),
	}
}

// perLayer lists every per-layer metric with its unit, in report order.
// A traced run of any workload prints all of them; a layer the workload
// does not run reads 0.
var perLayer = []struct{ name, unit string }{
	{"charact.runs_per_unit", "count"},
	{"charact.fail_run_ratio", "ratio"},
	{"charact.ns_per_run", "ns"},
	{"chip.trial_ns", "ns"},
	{"silicon.survives_ns", "ns"},
	{"rng.split_ns", "ns"},
	{"chip.core_lookup_ns", "ns"},
	{"charact.harness_ns_per_run", "ns"},
	{"charact.allocs_per_run", "count"},
	{"chip.build_ms", "ms"},
	{"dc.intake_ms", "ms"},
	{"dc.sim_ms", "ms"},
	{"platform.provision_ms", "ms"},
	{"tuning.deploy_ms", "ms"},
	{"manage.calibrate_ms", "ms"},
	{"chip.solve_us", "us"},
	{"fleet.overhead_ms", "ms"},
	{"dc.place_attempts", "count"},
	{"dc.place_useful_ratio", "ratio"},
	{"dc.ns_per_place_attempt", "ns"},
	{"guard.allow_ns", "ns"},
	{"dc.migrations", "count"},
	{"dc.shed", "count"},
	{"dc.violations", "count"},
	{"lifetime.epochs_per_unit", "count"},
	{"lifetime.trials_per_unit", "count"},
	{"lifetime.retunes_per_unit", "count"},
	{"fsp.margins_us", "us"},
	{"lifetime.advance_us", "us"},
	{"tuning.stress_ms", "ms"},
	{"lifetime.trial_ns", "ns"},
	{"lifetime.allocs_per_epoch", "count"},
	{"trace.unit_ms", "ms"},
	{"trace.residual_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
