// Command tracetool analyzes the message-level event logs that
// cmd/malleasim and cmd/redistsweep emit with -trace: it extracts the
// critical path of a run, profiles per-rank utilization, and diffs two
// runs phase-by-phase to locate a time delta.
//
//	tracetool analyze [-json] run.events.json
//	tracetool diff [-json] cola.events.json cols.events.json
//	tracetool top [-n 20] run.events.json
//	tracetool report [-o report.html] run.events.json|camp.snapshot.json
//
// Inputs are auto-detected: the raw event log (<prefix>.events.json), a
// bare JSON array of events, the Chrome trace export (<prefix>.json), or —
// for report — a streaming telemetry snapshot (<prefix>.snapshot.json).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/trace/analyze"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "analyze":
		cmdAnalyze(os.Args[2:])
	case "diff":
		cmdDiff(os.Args[2:])
	case "top":
		cmdTop(os.Args[2:])
	case "report":
		cmdReport(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tracetool: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  tracetool analyze [-json] <events-file>         critical path, phase windows, per-rank utilization
  tracetool diff [-json] <events-A> <events-B>    align two runs phase-by-phase, locate the delta
  tracetool top [-n N] <events-file>              largest critical-path contributors
  tracetool report [-o out.html] [-title T] <in>  self-contained HTML report (histograms, per-rank
                                                  utilization, fault/rung breakdown) from an event
                                                  log or an -obs-out snapshot

<events-file> is a -trace output of malleasim or redistsweep: the raw
event log (<prefix>.events.json) or the Chrome trace (<prefix>.json).
`)
	os.Exit(2)
}

func loadEvents(path string) []trace.Event {
	f, err := os.Open(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	events, err := trace.ReadEvents(f)
	if err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	return events
}

func cmdAnalyze(args []string) {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the full analysis as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	a := analyze.Analyze(loadEvents(fs.Arg(0)))
	if *asJSON {
		emitJSON(a)
		return
	}
	if err := a.WriteReport(os.Stdout); err != nil {
		fail(err)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the diff as JSON")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	a := analyze.Analyze(loadEvents(fs.Arg(0)))
	b := analyze.Analyze(loadEvents(fs.Arg(1)))
	d := analyze.Diff(a, b)
	if *asJSON {
		emitJSON(d)
		return
	}
	fmt.Printf("A: %s\nB: %s\n\n", fs.Arg(0), fs.Arg(1))
	if err := d.Write(os.Stdout); err != nil {
		fail(err)
	}
}

func cmdTop(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	n := fs.Int("n", 15, "number of entries")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	a := analyze.Analyze(loadEvents(fs.Arg(0)))
	if err := a.WriteTop(os.Stdout, *n); err != nil {
		fail(err)
	}
}

// cmdReport renders a self-contained HTML telemetry report. Input is
// auto-detected by the top-level schema field: an -obs-out snapshot is
// rendered directly; any event-log form replays through a fresh stream
// first (obs.FromEvents).
func cmdReport(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("o", "report.html", "output HTML path")
	title := fs.String("title", "", "report title (default: input file name)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	snap, err := loadSnapshot(path)
	if err != nil {
		fail(err)
	}
	if *title == "" {
		*title = filepath.Base(path)
	}
	f, err := os.Create(*out)
	if err != nil {
		fail(err)
	}
	if err := obs.WriteHTMLReport(f, *title, snap); err != nil {
		f.Close()
		os.Remove(*out)
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("%s: report with %d events, %d ranks -> %s\n", path, snap.Events, snap.Ranks, *out)
}

// loadSnapshot reads either a streaming snapshot or an event log (raw log,
// bare array, or Chrome trace), reducing the latter to a snapshot.
func loadSnapshot(path string) (obs.Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return obs.Snapshot{}, err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	if json.Unmarshal(raw, &probe) == nil && probe.Schema == obs.SnapshotSchema {
		return obs.ReadSnapshot(bytes.NewReader(raw))
	}
	events, err := trace.ReadEvents(bytes.NewReader(raw))
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("%s: neither a telemetry snapshot nor an event log: %w", path, err)
	}
	return obs.FromEvents(events).Snapshot(), nil
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tracetool:", err)
	os.Exit(1)
}
