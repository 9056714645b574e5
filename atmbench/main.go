// Command atmbench is the repository's end-to-end benchmark. It runs a
// fixed number of units of one workload, one unit at a time, through the
// public atm facade, checks every output, and prints each metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1950, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is traced and the metrics are the per-layer ones. README.md in
// this directory defines every workload and metric; run.sh builds and
// runs the command from a checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// setups is how many times a run repeats its set-up; setup_s is their
// median.
const setups = 7

// run parses the command line, runs the selected workloads and prints
// their reports. It returns the exit code: 0 when every output check
// passed, 1 when a check failed or a workload could not run, 2 on a
// usage error. adjust, nil outside tests, may change each workload's
// config before it runs.
func run(args []string, stdout, stderr io.Writer, adjust func(*config)) int {
	fs := flag.NewFlagSet("atmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed builds the same inputs")
	seconds := fs.Int("seconds", 30, "nominal measuring time; fixes the unit count before any timing")
	traceMode := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory the traced run writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "atmbench: bad arguments; see -h")
		return 2
	}
	var selected []*bench
	if *name == "all" {
		selected = workloads
	} else if w := workloadByName(*name); w != nil {
		selected = []*bench{w}
	} else {
		fmt.Fprintf(stderr, "atmbench: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	// One unit at a time on at most two cores: the work is
	// single-threaded, and the second core absorbs the collector.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		cfg := config{
			seed:     *seed,
			units:    w.unitCount(*seconds),
			setups:   setups,
			traced:   *traceMode == 1,
			traceDir: *traceDir,
		}
		if adjust != nil {
			adjust(&cfg)
		}
		rep, err := measure(w, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "atmbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout)
		final.Correct = final.Correct && rep.failed == 0
		final.Attempted += rep.units
		final.Failed += rep.failed
		for _, m := range rep.metrics {
			key := m.name
			if len(selected) > 1 {
				key = w.name + "." + m.name
			}
			final.Metrics[key] = metricValue{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(stderr, "atmbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// print writes the human-readable report: one line per metric, the
// simulated-statistics record, and any failure messages.
func (r *report) print(w io.Writer) {
	mode := 0
	if r.traced {
		mode = 1
	}
	fmt.Fprintf(w, "atmbench workload=%s seed=%d units=%d setups=%d trace=%d\n", r.workload, r.seed, r.units, r.setups, mode)
	for _, m := range append(r.metrics, r.info...) {
		fmt.Fprintf(w, "metric %s %v %s\n", m.name, m.value, m.unit)
	}
	for _, e := range r.estimates {
		fmt.Fprintf(w, "layer %s %.4f ms/unit\n", e.name, e.value)
	}
	if r.implausible != nil {
		fmt.Fprintf(w, "warning %v\n", r.implausible)
	}
	for _, msg := range r.failures {
		fmt.Fprintf(w, "failed %s\n", msg)
	}
	stats, err := json.Marshal(r.simStats())
	if err == nil {
		fmt.Fprintf(w, "simstats %s\n", stats)
	}
}

// simStats is the simulated-statistics record: the run's exact counts
// and the digest of every unit's canonical output. A change that only
// alters speed must leave it byte-identical for the same seed and unit
// count.
func (r *report) simStats() any {
	keys := make([]string, 0, len(r.counts))
	for k := range r.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	counts := make([]any, 0, len(keys))
	for _, k := range keys {
		counts = append(counts, []any{k, r.counts[k]})
	}
	return struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Units    int    `json:"units"`
		Digest   string `json:"digest"`
		Counts   []any  `json:"counts"`
	}{r.workload, r.seed, r.units, r.digest, counts}
}
