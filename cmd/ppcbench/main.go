// Command ppcbench regenerates every table and figure of the paper plus the
// extended experiments, printing paper-expected versus measured values for
// each (the source of EXPERIMENTS.md). It exits non-zero if any check
// fails.
//
// Usage:
//
//	ppcbench            # run everything
//	ppcbench -id T3     # run a single experiment
//	ppcbench -quick     # smaller Theorem-1 timing sweep
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ppclust/internal/experiments"
	"ppclust/internal/report"
)

func main() {
	failed, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ppcbench:", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ppcbench: %d check(s) FAILED\n", failed)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (failed int, err error) {
	fs := flag.NewFlagSet("ppcbench", flag.ContinueOnError)
	id := fs.String("id", "", "run only the experiment with this ID (T1..T6, F2, F3, TH1, TH2, C1, EXT1..EXT6, ABL2, ABL3)")
	quick := fs.Bool("quick", false, "shrink the Theorem 1 timing sweep")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}

	var toRun []experiments.Experiment
	if *id != "" {
		e, err := experiments.ByID(*id)
		if err != nil {
			return 0, err
		}
		toRun = []experiments.Experiment{e}
	} else {
		toRun = experiments.All()
	}

	for _, e := range toRun {
		if *quick && e.ID() == "TH1" {
			e = experiments.Theorem1{Ms: []int{4000, 8000, 16000, 32000}, Ns: []int{8, 16, 32, 64}, Repeats: 2}
		}
		fmt.Fprint(w, report.Section(fmt.Sprintf("[%s] %s", e.ID(), e.Title())))
		out, err := e.Run()
		if err != nil {
			fmt.Fprintf(w, "ERROR: %v\n", err)
			failed++
			continue
		}
		fmt.Fprintln(w, out.Text)
		for _, c := range out.Checks {
			fmt.Fprintln(w, " ", c)
			if !c.Pass() {
				failed++
			}
		}
	}
	fmt.Fprintln(w)
	if failed == 0 {
		fmt.Fprintln(w, "ppcbench: all checks passed")
	}
	return failed, nil
}
