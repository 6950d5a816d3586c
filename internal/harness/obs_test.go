package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/trace"
)

// sweepSnapshot runs the quick sweep with a meter attached at the given
// worker count and returns the merged snapshot's JSON bytes.
func sweepSnapshot(t *testing.T, workers int) []byte {
	t.Helper()
	s := quickSetup()
	s.Workers = workers
	s.Obs = NewMeter(MeterOptions{})
	if _, err := s.Sweep(quickPairs(), SyncConfigs(), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Obs.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepObsDeterministicAcrossWorkers is the campaign determinism
// contract: per-cell streams merge under the pool's ordered completion
// frontier, so the merged telemetry snapshot is byte-identical at -j 1
// and -j 8.
func TestSweepObsDeterministicAcrossWorkers(t *testing.T) {
	seq := sweepSnapshot(t, 1)
	par := sweepSnapshot(t, 8)
	if !bytes.Equal(seq, par) {
		t.Fatal("merged telemetry snapshot differs between -j 1 and -j 8")
	}
	snap, err := obs.ReadSnapshot(bytes.NewReader(seq))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Events == 0 || len(snap.Hists) == 0 || snap.Ranks == 0 {
		t.Fatalf("sweep snapshot is empty: %d events, %d hists, %d ranks",
			snap.Events, len(snap.Hists), snap.Ranks)
	}
}

// exactQuantile returns the order statistic Hist.Quantile estimates:
// sample number ceil(q*n), clamped to [1, n], of the sorted values.
func exactQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	target := int(math.Ceil(q * float64(len(sorted))))
	if target < 1 {
		target = 1
	}
	if target > len(sorted) {
		target = len(sorted)
	}
	return sorted[target-1]
}

// TestStreamMatchesRecorder is the exact-agreement contract: a streamed
// run and a fully-recorded run of the same seed agree on makespan, wire
// traffic per phase, and every fault counter. The streamed compute-span
// and wire-size quantiles stay within obs.RelErrBound of the exact order
// statistics of the recorded log, and on the 40->20 cell, big enough to
// record thousands of events, the stream's fixed footprint stays below
// the full log's.
func TestStreamMatchesRecorder(t *testing.T) {
	cfg := core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.NonBlocking}
	for _, tc := range []struct {
		name      string
		s         Setup
		p         Pair
		footprint bool
	}{
		{"quick 8->4", quickSetup(), Pair{NS: 8, NT: 4}, false},
		{"cg 40->20", DefaultSetup(netmodel.Ethernet10G()), Pair{NS: 40, NT: 20}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := trace.NewRecorder()
			resFull, err := tc.s.RunCellSink(tc.p, cfg, 0, rec)
			if err != nil {
				t.Fatal(err)
			}
			stream := obs.NewStream()
			resStream, err := tc.s.RunCellSink(tc.p, cfg, 0, stream)
			if err != nil {
				t.Fatal(err)
			}
			if resFull.TotalTime != resStream.TotalTime {
				t.Fatalf("makespan differs: recorded %g streamed %g", resFull.TotalTime, resStream.TotalTime)
			}
			events := rec.Events()
			if got, want := stream.Events(), uint64(len(events)); got != want {
				t.Fatalf("event count differs: streamed %d recorded %d", got, want)
			}
			m := rec.Metrics()
			snap := stream.Snapshot()
			for key, want := range map[string]int64{
				"wire/bytes/" + trace.PhaseRedistConst: m.BytesConst,
				"wire/bytes/" + trace.PhaseRedistVar:   m.BytesVar,
				"wire/msgs/" + trace.PhaseRedistConst:  m.MsgsConst,
				"wire/msgs/" + trace.PhaseRedistVar:    m.MsgsVar,
			} {
				if got := snap.Counter(key); got != want {
					t.Errorf("%s = %d, recorder says %d", key, got, want)
				}
			}
			for op, want := range m.MsgsByOp {
				if got := snap.Counter("msgs/op/" + op); got != want {
					t.Errorf("msgs/op/%s = %d, recorder says %d", op, got, want)
				}
			}

			var computes, wire []float64
			for _, ev := range events {
				if ev.Kind == trace.EvCompute {
					computes = append(computes, ev.Duration())
				}
				if ev.Kind == trace.EvSend || (ev.Kind == trace.EvRecv && ev.Op == "Get") {
					wire = append(wire, float64(ev.Bytes))
				}
			}
			for name, samples := range map[string][]float64{"span/compute": computes, "msg/bytes": wire} {
				h, ok := snap.HistNamed(name)
				if !ok || len(samples) == 0 {
					t.Fatalf("%s: histogram present %v, %d recorded samples", name, ok, len(samples))
				}
				sort.Float64s(samples)
				for _, q := range []struct{ q, est float64 }{{0.5, h.P50}, {0.9, h.P90}, {0.99, h.P99}} {
					exact := exactQuantile(samples, q.q)
					if exact == 0 {
						continue
					}
					if rel := math.Abs(q.est-exact) / exact; rel > obs.RelErrBound {
						t.Errorf("%s p%g: streamed %g vs exact %g, relative error %g > %g",
							name, 100*q.q, q.est, exact, rel, obs.RelErrBound)
					}
				}
			}

			// 96 bytes is the accounting size of one recorded trace.Event.
			if got, log := stream.MemoryBytes(), 96*int64(len(events)); tc.footprint && got >= log {
				t.Errorf("stream footprint %d bytes not below the full log's %d", got, log)
			}
		})
	}
}

// TestFaultCampaignStreamFaultCounters checks the same agreement on a
// faulted run, where fault counters and recovery-rung telemetry are live.
func TestFaultCampaignStreamFaultCounters(t *testing.T) {
	s := quickSetup()
	p := Pair{NS: 8, NT: 4}
	cfg := core.Config{Spawn: core.Baseline, Comm: core.P2P, Overlap: core.Sync}

	stream := obs.NewStream()
	r, err := s.runFaultCell(p, cfg, 0, FaultParams{}, stream)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Survived {
		t.Fatalf("faulted run died: %s", r.Err)
	}
	snap := stream.Snapshot()
	for op, want := range r.Faults {
		if got := snap.Counter("fault/" + op); got != want {
			t.Errorf("fault/%s = %d, recorder says %d", op, got, want)
		}
	}
	if snap.Counter("fault/crash") == 0 {
		t.Error("streamed faulted run recorded no crash")
	}
	if len(snap.Anomalies) == 0 {
		t.Error("flight recorder retained no anomalies from a faulted run")
	}
}

// TestFaultCampaignWithMeter runs the campaign with a meter and checks the
// live emission content: survival, rung distribution, throughput.
func TestFaultCampaignWithMeter(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	s.Workers = 4
	var log bytes.Buffer
	var notes []string
	clock := time.Unix(0, 0)
	s.Obs = NewMeter(MeterOptions{
		Log:  &log,
		Note: func(line string) { notes = append(notes, line) },
		// The fake clock never advances, so only the final Flush emits.
		Now: func() time.Time { return clock },
	})
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.P2P, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
	}
	rows, err := s.RunFaultCampaign(Pair{NS: 8, NT: 4}, configs, FaultParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(configs) {
		t.Fatalf("got %d rows, want %d", len(rows), len(configs))
	}
	s.Obs.Flush()
	if len(notes) == 0 {
		t.Fatal("meter emitted no note lines")
	}
	final := notes[len(notes)-1]
	if !strings.Contains(final, fmt.Sprintf("cells=%d", len(configs))) {
		t.Errorf("final meter line %q does not report %d cells", final, len(configs))
	}
	if !strings.Contains(log.String(), `"runtime"`) {
		t.Error("meter log line carries no runtime self-profile sample")
	}
	snap := s.Obs.Snapshot()
	if snap.Counter("fault/crash") == 0 {
		t.Error("campaign aggregate has no crash counter")
	}
}

// TestWriteToCleansUpPartialFiles pins the failure contract: an aborted
// write leaves no truncated artifact behind.
func TestWriteToCleansUpPartialFiles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact.json")
	wantErr := errors.New("mid-write failure")
	err := writeTo(path, func(w io.Writer) error {
		fmt.Fprint(w, "partial")
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("writeTo returned %v, want the write error", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("partial file still exists after failed write (stat: %v)", statErr)
	}
	// The success path still writes the file.
	if err := writeTo(path, func(w io.Writer) error {
		_, err := fmt.Fprint(w, "complete")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "complete" {
		t.Fatalf("successful write produced %q, %v", data, err)
	}
}

// TestPooledRecorderAndStreamReuse drives the traced sweep (recorder pool)
// with telemetry on (stream pool) across 8 workers, twice, and checks the
// merged snapshots agree — recycled instances must behave like fresh ones.
// Under -race this also exercises the pools' concurrent Get/Put paths.
func TestPooledRecorderAndStreamReuse(t *testing.T) {
	run := func() ([]CellMetrics, []byte) {
		s := quickSetup()
		s.Workers = 8
		s.Obs = NewMeter(MeterOptions{})
		cells, _, err := s.sweepMetrics(quickPairs(), SyncConfigs(), 0, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := s.Obs.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return cells, buf.Bytes()
	}
	cells1, snap1 := run()
	cells2, snap2 := run()
	if !bytes.Equal(snap1, snap2) {
		t.Fatal("pooled reuse changed the merged telemetry snapshot between runs")
	}
	for i := range cells1 {
		if cells1[i].Key != cells2[i].Key || cells1[i].M.BytesVar != cells2[i].M.BytesVar {
			t.Fatalf("pooled reuse changed cell %d metrics", i)
		}
	}
}

func TestObsFlagsPProf(t *testing.T) {
	dir := t.TempDir()
	of := &ObsFlags{Out: filepath.Join(dir, "p"), PProf: "cpu,heap"}
	stop, err := of.StartPProf()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof"} {
		if _, err := os.Stat(of.Out + suffix); err != nil {
			t.Errorf("missing profile %s: %v", suffix, err)
		}
	}
	bad := &ObsFlags{PProf: "flamegraph"}
	if _, err := bad.StartPProf(); err == nil {
		t.Error("StartPProf accepted an unknown profile kind")
	}
}

func TestObsFlagsStartMeterWritesFiles(t *testing.T) {
	dir := t.TempDir()
	of := &ObsFlags{Out: filepath.Join(dir, "camp"), Every: time.Hour}
	m, finish, err := of.StartMeter(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := quickSetup()
	s.Reps = 1
	s.Obs = m
	if _, err := s.Sweep([]Pair{{NS: 4, NT: 2}}, SyncConfigs()[:1], nil); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	logData, err := os.ReadFile(of.Out + ".obslog.jsonl")
	if err != nil || !strings.Contains(string(logData), `"cells":1`) {
		t.Fatalf("obslog missing or wrong: %v %q", err, logData)
	}
	f, err := os.Open(of.Out + ".snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := obs.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Events == 0 {
		t.Fatal("snapshot file holds no events")
	}
}
