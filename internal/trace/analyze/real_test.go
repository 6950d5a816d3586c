package analyze_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/trace"
	"repro/internal/trace/analyze"
)

func runTraced(t *testing.T, cfg core.Config, ns, nt int) *trace.Recorder {
	t.Helper()
	setup := harness.DefaultSetup(netmodel.Ethernet10G())
	rec := trace.NewRecorder()
	if _, err := setup.RunCellSink(harness.Pair{NS: ns, NT: nt}, cfg, 0, rec); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestCriticalPathAccountsForMakespan is the acceptance check: on a real
// Merge/P2P/A Queen_4147-profile run, the critical-path bucket sums must
// equal the run makespan.
func TestCriticalPathAccountsForMakespan(t *testing.T) {
	rec := runTraced(t, core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.NonBlocking}, 160, 80)
	a := analyze.Analyze(rec.Events())
	if a.Makespan <= 0 {
		t.Fatalf("no makespan: %+v", a)
	}
	if err := math.Abs(a.Path.Buckets.Sum() - a.Makespan); err > 1e-6*a.Makespan {
		t.Fatalf("bucket sum %.9f != makespan %.9f (err %g)", a.Path.Buckets.Sum(), a.Makespan, err)
	}
	if a.Diags.UnmatchedRecvs != 0 || a.Diags.WalkTruncated {
		t.Fatalf("real run produced diagnostics: %+v", a.Diags)
	}
	// The async configuration must show the overlapped constant-data
	// window, and the wire bucket must dominate inside it.
	var foundConst bool
	for _, ph := range a.Phases {
		if ph.Phase == trace.PhaseRedistConst {
			foundConst = true
			if ph.Duration <= 0 {
				t.Fatalf("empty redist-const window: %+v", ph)
			}
			if ph.Path.Wire < ph.Path.Blocked || ph.Path.Wire <= 0 {
				t.Fatalf("redist-const window not wire-dominated: %+v", ph.Path)
			}
		}
	}
	if !foundConst {
		t.Fatal("async run missing redist-const window")
	}
}

// TestDiffAttributesAsyncVsSync is the second acceptance check: diffing a
// Merge/P2P A-vs-S pair must attribute the delta predominantly to the
// halted redist-var window.
func TestDiffAttributesAsyncVsSync(t *testing.T) {
	recA := runTraced(t, core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.NonBlocking}, 160, 80)
	recS := runTraced(t, core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync}, 160, 80)
	a := analyze.Analyze(recA.Events())
	s := analyze.Analyze(recS.Events())
	d := analyze.Diff(a, s)
	if d.DominantReconfig != trace.PhaseRedistVar {
		t.Fatalf("A-vs-S delta attributed to %q, want %q (stages %+v)",
			d.DominantReconfig, trace.PhaseRedistVar, d.Stages)
	}
	// The sync run halts everything: its var window must dwarf the async
	// one's.
	for _, sd := range d.Stages {
		if sd.Phase == trace.PhaseRedistVar && sd.B <= sd.A {
			t.Fatalf("sync var window %f not larger than async %f", sd.B, sd.A)
		}
	}
	var out bytes.Buffer
	if err := d.Write(&out); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeEventsRoundTrip ensures the analysis is identical whether the
// log comes from the in-process recorder or a serialized raw event file.
func TestAnalyzeEventsRoundTrip(t *testing.T) {
	rec := runTraced(t, core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync}, 20, 10)
	direct := analyze.Analyze(rec.Events())

	var buf bytes.Buffer
	if err := rec.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fromFile := analyze.Analyze(events)
	if direct.Makespan != fromFile.Makespan || direct.Path.Buckets != fromFile.Path.Buckets {
		t.Fatalf("round-trip drift: direct %+v file %+v", direct.Path.Buckets, fromFile.Path.Buckets)
	}
}
