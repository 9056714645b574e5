// Command atmlint runs the repository's domain-specific static
// analyzers (internal/lint) over the module: determinism (detflow,
// maporder), unit safety (unitsafety), float comparison hygiene
// (floatcmp), error hygiene (errdrop), hot-path allocation discipline
// (hotpath), nil-safe-handle contracts (nilsafe) and code no program
// reaches (deadcode; judged only when a main package is linted).
//
// Usage:
//
//	atmlint [-json] [-list] [package-dir | ./...]
//
// With no argument (or "./...") the whole module containing the
// current directory is linted, and a //lint:ignore rule that suppresses
// no finding is itself a finding; with a package directory, just that
// package. Exit status: 0 clean, 1 findings, 2 usage or load failure.
//
// Suppress an individual finding with an annotation on the same line,
// the line directly above it, or the opening line of the multi-line
// statement containing it:
//
//	//lint:ignore <rule>[,<rule>...] <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("atmlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	listRules := fs.Bool("list", false, "list rule IDs and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: atmlint [-json] [-list] [package-dir | ./...]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listRules {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %-5s %s\n", a.Name, a.Severity, a.Doc)
		}
		return 0
	}
	if fs.NArg() > 1 {
		fs.Usage()
		return 2
	}

	var findings []lint.Finding
	var err error
	if arg := fs.Arg(0); arg == "" || arg == "./..." {
		findings, err = lint.Run(".", lint.DefaultConfig())
	} else {
		findings, err = lint.RunDir(arg, lint.DefaultConfig())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "atmlint:", err)
		return 2
	}
	render := lint.Render
	if *jsonOut {
		render = lint.RenderJSON
	}
	if err := render(os.Stdout, findings); err != nil {
		fmt.Fprintln(os.Stderr, "atmlint:", err)
		return 2
	}
	if len(findings) == 0 {
		return 0
	}
	if !*jsonOut {
		fmt.Fprintf(os.Stderr, "atmlint: %d finding(s)\n", len(findings))
	}
	return 1
}
