package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/perf"
	"repro/internal/report"
)

// cmdBench runs the pinned microbenchmark plan over the //atm:hotpath
// kernels, the end-to-end characterize/tune stages, the fleet engine,
// and the datacenter hot paths, optionally profiling exactly the
// benched region (read the profile with `go tool pprof`), and emits
// the canonical BENCH_core.json artifact.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	set := fs.String("set", "", "comma-separated stage groups to run: kernel,e2e,fleet,dc,lifetime (empty = all)")
	quick := fs.Bool("quick", false, "CI-sized iteration plan (baselines are checked in quick)")
	out := fs.String("out", "", "write the BENCH json artifact to this file")
	baseline := fs.String("baseline", "", "compare against this BENCH json and exit 3 on regression")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the benched region")
	memprofile := fs.String("memprofile", "", "write a post-GC heap profile taken after the benched region")
	traceOut := fs.String("trace", "", "write a runtime/trace of the benched region")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	var groups []string
	if *set != "" {
		groups = strings.Split(*set, ",")
	}
	stages, err := perf.Stages(*quick, groups...)
	if err != nil {
		return badFlag(fs, "%v", err)
	}
	base, err := readBaseline(*baseline)
	if err != nil {
		return err
	}

	// Capture brackets exactly the measured stages: no flag parsing, no
	// artifact writing in the profile.
	capture := perf.Capture{CPUProfile: *cpuprofile, MemProfile: *memprofile, Trace: *traceOut}
	var stop func() error
	if capture.Enabled() {
		if stop, err = capture.Start(); err != nil {
			return err
		}
	}
	results, err := perf.RunStages(stages)
	if stop != nil {
		if cerr := stop(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}

	doc := perf.NewDoc(*quick, results)
	if err := renderBenchTable(doc, results); err != nil {
		return err
	}
	if err := writeDoc(*out, doc); err != nil {
		return err
	}
	return gateBaseline(*baseline, base, doc)
}

// renderBenchTable prints the per-stage results for humans; the json
// artifact is the machine form.
func renderBenchTable(doc *perf.Doc, results []perf.StageResult) error {
	t := &report.Table{
		Title:  fmt.Sprintf("bench %s (quick=%v)", doc.Bench, doc.Quick),
		Header: []string{"stage", "group", "iters", "trials/op", "ns/trial", "trials/sec", "allocs/op"},
	}
	for _, r := range results {
		nsPerTrial := int64(0)
		if r.TrialsPerOp > 0 {
			nsPerTrial = r.NSPerOp / r.TrialsPerOp
		}
		allocs := fmt.Sprintf("%d", r.AllocsPerOp)
		if !r.Stage.AllocStable {
			allocs = fmt.Sprintf("~%d", r.AllocsPerOp) // scheduling-dependent: timing only
		}
		t.AddRow(r.Stage.Name, r.Stage.Group, fmt.Sprintf("%d", r.Stage.Iters),
			fmt.Sprintf("%d", r.TrialsPerOp), fmt.Sprintf("%d", nsPerTrial),
			report.F(r.TrialsPerSec, 0), allocs)
	}
	return t.Render(os.Stdout)
}

// readBaseline loads and schema-checks the -baseline file (nil when
// the flag is unset). It runs before anything is measured, so a run
// whose -out names the same file is still gated against the file's
// old rows, not against itself.
func readBaseline(path string) (*perf.Doc, error) {
	if path == "" {
		return nil, nil
	}
	return perf.ReadDoc(path)
}

// writeDoc writes the artifact to path, if one was given.
func writeDoc(path string, doc *perf.Doc) error {
	if path == "" {
		return nil
	}
	raw, err := doc.Marshal()
	if err != nil {
		return err
	}
	return writeFile(path, func(f *os.File) error { _, werr := f.Write(raw); return werr })
}

// gateBaseline compares the run against the baseline read from path
// (a no-op without one) and reports regressions as a partial failure
// (exit 3): the run itself rendered fine, but the operator must not
// miss the drift.
func gateBaseline(path string, base, doc *perf.Doc) error {
	if base == nil {
		return nil
	}
	regs, err := perf.Compare(base, doc)
	if err != nil {
		return err
	}
	if len(regs) == 0 {
		fmt.Printf("baseline %s: ok (%d stage(s) gated)\n", path, len(base.Stages))
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(os.Stderr, "regression:", r)
	}
	return partialf("%d regression(s) against %s", len(regs), path)
}
