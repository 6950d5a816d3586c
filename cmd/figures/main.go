// Command figures renders the paper's evaluation from sweep measurements
// as text: synchronous reconfiguration times (Figures 2-3), α ratios of
// the asynchronous variants (Figures 4-5), application speedups against
// Baseline COLS with the reference reconfiguration series (Figures 7-8),
// and the best-method maps of the statistical pipeline for
// reconfiguration time (Figure 6) and total time (Figure 9).
//
//	figures -in results/eth_all.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/harness"
)

func main() {
	in := flag.String("in", "", "measurements CSV from redistsweep (required)")
	flag.Parse()
	if *in == "" {
		fail(fmt.Errorf("-in is required"))
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	m, err := harness.ParseCSV(f)
	if err != nil {
		fail(err)
	}
	if err := harness.WriteFigures(os.Stdout, m); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
