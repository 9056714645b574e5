// Command atmfigures regenerates the paper's tables and figures from
// the simulated POWER7+ platform.
//
// Usage:
//
//	atmfigures                 # regenerate everything, text format
//	atmfigures -id fig7        # one artifact
//	atmfigures -csv            # CSV output
//	atmfigures -list           # list artifact IDs
//	atmfigures -generated 42   # run on Monte-Carlo silicon (seed 42)
//	atmfigures -workers 8      # fleet worker pool for the Monte-Carlo
//	                           # extension study (output is identical
//	                           # for every worker count)
//
// Exit codes: 0 success, 1 hard failure, 2 usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	atm "repro"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run renders the artifacts args select to stdout and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("atmfigures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id        = fs.String("id", "", "regenerate a single artifact (e.g. table1, fig7)")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		list      = fs.Bool("list", false, "list artifact IDs and exit")
		generated = fs.Uint64("generated", 0, "run on generated silicon with this seed instead of the paper-calibrated reference")
		ext       = fs.Bool("ext", false, "also regenerate the extension studies (undervolt, Monte-Carlo, ablations)")
		workers   = fs.Int("workers", 0, "fleet workers for the Monte-Carlo population study (0 = default; any value emits identical bytes)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// 0 selects the default pool; a negative count is a typo, not "one".
	if *workers < 0 {
		//lint:ignore errdrop the diagnostic on stderr is the usage report itself
		fmt.Fprintf(stderr, "-workers %d: want 0 (default) or more\n", *workers)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		//lint:ignore errdrop the diagnostic on stderr is the last report a failing run can make
		fmt.Fprintln(stderr, "atmfigures:", err)
		return 1
	}

	opts := atm.SuiteOptions{FleetWorkers: *workers}
	if *generated != 0 {
		profile, err := atm.GenerateSilicon(*generated, atm.GenerateOptions{})
		if err != nil {
			return fail(err)
		}
		opts.Profile = profile
	}
	suite, err := atm.NewSuite(opts)
	if err != nil {
		return fail(err)
	}

	// An unknown -id is a typo like a negative -workers: refuse it
	// before any artifact runs. RunExperiment searches both lists, so an
	// extension ID needs no -ext.
	if *id != "" {
		known := false
		for _, e := range append(suite.Experiments(), suite.ExtensionExperiments()...) {
			known = known || e.ID == *id
		}
		if !known {
			//lint:ignore errdrop the diagnostic on stderr is the usage report itself
			fmt.Fprintf(stderr, "-id %s: unknown artifact (atmfigures -list -ext lists them)\n", *id)
			fs.Usage()
			return 2
		}
	}

	experiments := suite.Experiments()
	if *ext {
		experiments = append(experiments, suite.ExtensionExperiments()...)
	}
	if *list {
		for _, e := range experiments {
			if _, err := fmt.Fprintf(stdout, "%-22s %s\n", e.ID, e.Caption); err != nil {
				return fail(err)
			}
		}
		return 0
	}

	emit := func(a *report.Artifact) error {
		if *csv {
			return a.RenderCSV(stdout)
		}
		return a.Render(stdout)
	}

	if *id != "" {
		a, err := suite.RunExperiment(*id)
		if err != nil {
			return fail(err)
		}
		if err := emit(a); err != nil {
			return fail(err)
		}
		return 0
	}
	for _, e := range experiments {
		a, err := e.Run()
		if err != nil {
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		if err := emit(a); err != nil {
			return fail(err)
		}
	}
	return 0
}
