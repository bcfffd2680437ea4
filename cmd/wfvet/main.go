// Command wfvet is the determinism-lint suite for this repository: a
// multichecker that mechanically enforces the simulator's bit-identical
// contract (no wall clocks, env reads or raw math/rand in module code,
// no order-sensitive map iteration, no ad-hoc seeds, no host-scheduler
// concurrency in the event loop).
//
// Usage:
//
//	wfvet [packages]    analyze packages (default ./...)
//	wfvet -catalog      print the rule catalog
//
// Findings go to stderr as file:line:col: [rule] message lines. Exit
// status: 0 clean, 1 usage or operational error, 2 findings. Suppress a
// finding with `//wfvet:ignore <rule> <reason>` on (or directly above)
// the offending line; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"

	"ec2wfsim/internal/analysis"
	"ec2wfsim/internal/analysis/driver"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("wfvet", flag.ContinueOnError)
	catalog := fs.Bool("catalog", false, "print the determinism rule catalog and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: wfvet [-catalog] [packages]\nexit status: 0 clean, 1 usage/operational error, 2 findings\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1 // the flag package already printed the usage error
	}
	if *catalog {
		printCatalog()
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	findings, err := driver.Analyze(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfvet: %v\n", err)
		return 1
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(os.Stderr, "wfvet: %d finding(s)\n", n)
		return 2
	}
	return 0
}

func printCatalog() {
	fmt.Println("wfvet — determinism rules (suppress with //wfvet:ignore <rule> <reason>)")
	for _, a := range analysis.Rules() {
		fmt.Printf("\n%s\n    %s\n    why: %s\n", a.Name, a.Doc, a.Why)
	}
}
