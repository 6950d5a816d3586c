// Command redistsweep reproduces the paper's measurement sweep: every
// requested (NS, NT) pair under every requested malleability configuration,
// repeated with distinct seeds, written as CSV for cmd/figures.
//
//	redistsweep -net ethernet -pairs plots -reps 5 -out eth.csv
//	redistsweep -net infiniband -pairs all -reps 5 -out ib_all.csv
//	redistsweep -trace -metrics cells.csv -trace-out sweep_trace
//	redistsweep -ranks 1000,10000 -mem-ceiling 16777216 -configs sync -reps 1
//
// -pairs plots covers the from/to-160 families the paper's line plots use
// (Figures 2-5, 7-8); -pairs all covers the 42 pairs of Figures 6 and 9.
// -ranks replaces the pair family with extreme-scale 2:1 shrinks (one
// cell per listed source count), and -mem-ceiling caps each rank's
// in-flight redistribution bytes, switching the P2P and RMA passes onto
// the wave schedule. -trace additionally runs one traced repetition per
// cell: -metrics collects per-cell redistribution metrics, and -trace-out
// exports the last cell's event log in the same formats cmd/malleasim
// emits, ready for cmd/tracetool.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/harness"
)

func main() {
	netName := flag.String("net", "ethernet", "interconnect: ethernet or infiniband")
	pairsName := flag.String("pairs", "plots", "pair family: plots (from/to 160), all (42 pairs), from160, to160")
	configsName := flag.String("configs", "all", "configuration family: all, sync, async, rma, extended (all + RMA + CR), scale (Merge P2P/RMA for 10k+ ranks)")
	ranksList := flag.String("ranks", "", "extreme-scale axis: comma-separated source counts, each a 2:1 shrink cell (overrides -pairs)")
	memCeiling := flag.Int64("mem-ceiling", 0, "per-rank in-flight redistribution byte ceiling (0: the paper's one-shot schedule)")
	reps := flag.Int("reps", 5, "repetitions per cell")
	workers := flag.Int("j", harness.DefaultWorkers(), "worker count: cells simulated concurrently (1: sequential; output is identical at any -j)")
	out := flag.String("out", "", "CSV output path (default stdout)")
	quiet := flag.Bool("quiet", false, "suppress progress lines")
	tf := harness.RegisterTraceFlags(flag.CommandLine, "redistsweep_trace")
	of := harness.RegisterObsFlags(flag.CommandLine)
	flag.Parse()

	net, err := harness.ParseNet(*netName)
	if err != nil {
		fail(err)
	}
	pairs, err := harness.ParsePairFamily(*pairsName)
	if err != nil {
		fail(err)
	}
	if *ranksList != "" {
		if pairs, err = scalePairs(*ranksList); err != nil {
			fail(err)
		}
	}
	configs, err := harness.ParseConfigFamily(*configsName)
	if err != nil {
		fail(err)
	}
	if *memCeiling > 0 {
		for i := range configs {
			configs[i].MemCeiling = *memCeiling
		}
	}

	setup := harness.DefaultSetup(net)
	setup.Reps = *reps
	setup.Workers = *workers

	// The pool serializes completion callbacks in sweep order, so the
	// [done/total eta] reporter needs no locking and its lines never
	// interleave, whatever -j is.
	cells := len(pairs) * len(configs)
	rep := harness.NewProgress(os.Stderr, cells)
	progress := func(line string) {
		if !*quiet {
			rep.Step(line)
		}
	}

	stopProf, err := of.StartPProf()
	if err != nil {
		fail(err)
	}
	if of.Enabled() {
		meter, finishObs, err := of.StartMeter(rep.Note)
		if err != nil {
			fail(err)
		}
		setup.Obs = meter
		defer func() {
			if err := finishObs(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "# obs: telemetry written to %s.obslog.jsonl and %s.snapshot.json (render with `tracetool report`)\n",
				of.Out, of.Out)
		}()
	}
	defer func() {
		if err := stopProf(); err != nil {
			fail(err)
		}
	}()

	start := time.Now()
	m, err := setup.Sweep(pairs, configs, progress)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "# sweep: %d cells x %d reps on %s with -j %d in %s\n",
		len(m), *reps, net.Name, *workers, time.Since(start).Round(time.Second))

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := harness.WriteCSV(w, m); err != nil {
		fail(err)
	}

	if tf.Trace {
		trep := harness.NewProgress(os.Stderr, cells)
		cells, lastRec, err := setup.SweepMetricsTraced(pairs, configs, 0, func(line string) {
			if !*quiet {
				trep.Step(line)
			}
		})
		if err != nil {
			fail(err)
		}
		if lastRec != nil {
			if err := harness.WriteTraceFiles(lastRec, tf.Out); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "# event log of the last traced cell written to %s.events.json (raw log for tracetool), %s.json (Chrome trace), %s.metrics.{csv,json}\n",
				tf.Out, tf.Out, tf.Out)
		}
		if tf.Metrics != "" {
			f, err := os.Create(tf.Metrics)
			if err != nil {
				fail(err)
			}
			if err := harness.WriteMetricsCSV(f, cells); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "# trace metrics for %d cells written to %s\n", len(cells), tf.Metrics)
		}
	}
}

// scalePairs parses the -ranks axis: each listed source count becomes one
// 2:1 shrink cell, the geometry the extreme-scale benchmarks measure.
func scalePairs(list string) ([]harness.Pair, error) {
	var pairs []harness.Pair
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad -ranks entry %q (want integers >= 2)", s)
		}
		pairs = append(pairs, harness.Pair{NS: n, NT: n / 2})
	}
	return pairs, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "redistsweep:", err)
	os.Exit(1)
}
