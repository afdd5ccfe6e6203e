// Command chaosvet runs the repository's project-specific static
// analyzers (internal/analysis) over Go package patterns and reports
// violations of the SPMD, hot-path, exchange-result and non-test-caller
// invariants with file:line diagnostics:
//
//	go run ./cmd/chaosvet ./...
//	go run ./cmd/chaosvet -run spmdcollective,hotalloc ./internal/partition
//
// Exit status is 0 when the tree is clean, 1 when any diagnostic is
// reported, and 2 on usage or load errors. `make analyze` runs the full
// suite as part of tier-1 CI; see docs/ANALYZERS.md for what each
// analyzer enforces and how to suppress a reviewed false positive with
// a //chaosvet:ignore directive.
package main

import (
	"flag"
	"fmt"
	"os"

	"chaos/internal/analysis"
)

func main() {
	run := flag.String("run", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "print the analyzer catalog and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: chaosvet [-run analyzers] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := analysis.ByName(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosvet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaosvet:", err)
		os.Exit(2)
	}
	diags := analysis.Run(analyzers, fset, pkgs)
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "chaosvet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}
