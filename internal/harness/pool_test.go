package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestForEachOrderedCompletion checks the sequential contract at several
// worker counts: complete fires exactly once per job, serially, in index
// order, whatever order the workers finish in.
func TestForEachOrderedCompletion(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		var mu sync.Mutex
		var got []int
		err := ForEach(50, workers, func(i int) error {
			// Stagger finish order: later indices finish first.
			time.Sleep(time.Duration(50-i) * 10 * time.Microsecond)
			return nil
		}, func(i int) {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 50 {
			t.Fatalf("workers=%d: %d completions, want 50", workers, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: completion %d fired as %d (out of order)", workers, i, v)
			}
		}
	}
}

// TestForEachWorkersExceedJobs runs more workers than jobs: every job still
// runs exactly once and the pool neither hangs nor double-schedules.
func TestForEachWorkersExceedJobs(t *testing.T) {
	var runs [3]int32
	err := ForEach(3, 16, func(i int) error {
		atomic.AddInt32(&runs[i], 1)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range runs {
		if n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

// TestForEachPanicRecovery requires a panicking cell to surface as an
// error carrying the job index — not a dead worker and a hung pool.
func TestForEachPanicRecovery(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(8, workers, func(i int) error {
			if i == 3 {
				panic("exploding cell")
			}
			return nil
		}, nil)
		if err == nil {
			t.Fatalf("workers=%d: panic not surfaced", workers)
		}
		if !strings.Contains(err.Error(), "cell 3 panicked") || !strings.Contains(err.Error(), "exploding cell") {
			t.Fatalf("workers=%d: error %q missing panic context", workers, err)
		}
	}
}

// TestForEachFirstErrorWinsAndCancels checks the error contract: the
// lowest-index failure is returned, no completion fires at or past it, and
// scheduling stops — with 1000 jobs and an early failure, only a bounded
// prefix may ever start.
func TestForEachFirstErrorWinsAndCancels(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	var started int32
	var mu sync.Mutex
	var completed []int
	err := ForEach(1000, 4, func(i int) error {
		atomic.AddInt32(&started, 1)
		switch i {
		case 5:
			return errLow
		case 6:
			return errHigh
		}
		return nil
	}, func(i int) {
		mu.Lock()
		completed = append(completed, i)
		mu.Unlock()
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("got %v, want the lowest-index error %v", err, errLow)
	}
	if n := atomic.LoadInt32(&started); n >= 1000 {
		t.Fatalf("cancellation did not stop scheduling: %d jobs started", n)
	}
	for _, i := range completed {
		if i >= 5 {
			t.Fatalf("complete(%d) fired at/past the failed index 5", i)
		}
	}
}

// TestForEachSequentialErrorStops mirrors the cancellation check on the
// workers == 1 fast path.
func TestForEachSequentialErrorStops(t *testing.T) {
	boom := errors.New("boom")
	var started int32
	err := ForEach(10, 1, func(i int) error {
		atomic.AddInt32(&started, 1)
		if i == 2 {
			return boom
		}
		return nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if started != 3 {
		t.Fatalf("sequential path started %d jobs after error at 2", started)
	}
}

// TestSweepDeterministicAcrossWorkers is the cross-pool determinism gate:
// the same sweep at -j 1 and -j 8 must serialize to byte-identical CSV,
// and every cell's traced event log must be byte-identical too (extending
// the byte-identical log guarantee across the pool boundary).
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.P2P, Overlap: core.NonBlocking},
		// An 8 KiB ceiling splits every source's share of the quick data
		// into several waves, so the wave schedule crosses the pool too.
		{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync, MemCeiling: 8 << 10},
		{Spawn: core.Merge, Comm: core.RMA, Overlap: core.Sync, MemCeiling: 8 << 10},
	}

	csvAt := func(workers int) []byte {
		t.Helper()
		s := quickSetup()
		s.Workers = workers
		m, err := s.Sweep(quickPairs(), configs, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := csvAt(1), csvAt(8)
	if !bytes.Equal(seq, par) {
		t.Fatalf("-j 1 and -j 8 sweeps differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}

	// Per-cell event logs: run every cell's traced repetition under an
	// 8-worker pool and require each log byte-identical to its sequential
	// twin.
	logsAt := func(workers int) [][]byte {
		t.Helper()
		s := quickSetup()
		pairs := quickPairs()
		n := len(pairs) * len(configs)
		out := make([][]byte, n)
		err := ForEach(n, workers, func(i int) error {
			p, cfg := pairs[i/len(configs)], configs[i%len(configs)]
			rec := trace.NewRecorder()
			if _, err := s.RunCellSink(p, cfg, 0, rec); err != nil {
				return err
			}
			var buf bytes.Buffer
			if err := rec.WriteEvents(&buf); err != nil {
				return err
			}
			out[i] = buf.Bytes()
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	seqLogs, parLogs := logsAt(1), logsAt(8)
	for i := range seqLogs {
		if !bytes.Equal(seqLogs[i], parLogs[i]) {
			t.Fatalf("cell %d event log differs between -j 1 and -j 8", i)
		}
	}
}

// TestSweepParallelMatchesSequentialError checks first-error-wins across
// the engine: an impossible cell fails identically at any worker count.
func TestSweepParallelMatchesSequentialError(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	// NS <= 0 is rejected by synthapp.Run, deterministically.
	pairs := []Pair{{NS: 4, NT: 8}, {NS: 0, NT: 8}, {NS: 8, NT: 4}}
	configs := []core.Config{{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync}}
	errAt := func(workers int) string {
		s.Workers = workers
		_, err := s.Sweep(pairs, configs, nil)
		if err == nil {
			t.Fatalf("workers=%d: degenerate pair accepted", workers)
		}
		return err.Error()
	}
	if seq, par := errAt(1), errAt(8); seq != par {
		t.Fatalf("error differs across worker counts:\n j1: %s\n j8: %s", seq, par)
	}
}

// TestProgressReporting exercises the throttled [done/total eta] reporter.
func TestProgressReporting(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	p := NewProgress(&buf, 3)
	p.now = func() time.Time { return now }
	p.start = now

	now = now.Add(time.Second)
	p.Step("first")
	now = now.Add(50 * time.Millisecond) // throttled: inside minGap
	p.Step("second")
	now = now.Add(time.Second)
	p.Step("third") // final step always prints
	p.Note("aside")

	out := buf.String()
	if !strings.Contains(out, "[1/3 eta 2s] first") {
		t.Fatalf("missing first line with ETA: %q", out)
	}
	if strings.Contains(out, "second") {
		t.Fatalf("throttled line printed: %q", out)
	}
	if !strings.Contains(out, "[3/3] third") {
		t.Fatalf("missing final line: %q", out)
	}
	if !strings.Contains(out, "aside\n") {
		t.Fatalf("missing note: %q", out)
	}
}

// TestFaultCampaignDeterministicAcrossWorkers runs a tiny campaign at -j 1
// and -j 8 and requires identical rows and progress lines in identical
// order.
func TestFaultCampaignDeterministicAcrossWorkers(t *testing.T) {
	s := quickSetup()
	s.Cluster.FSBandwidth = 1e8
	s.Cluster.FSPerStream = 5e7
	s.Cluster.FSLatency = 1e-3
	s.Reps = 2
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.P2P, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
	}
	runAt := func(workers int) ([]FaultCampaignRow, []string) {
		t.Helper()
		s.Workers = workers
		var lines []string
		rows, err := s.RunFaultCampaign(Pair{NS: 4, NT: 2}, configs, FaultParams{},
			func(l string) { lines = append(lines, l) })
		if err != nil {
			t.Fatal(err)
		}
		return rows, lines
	}
	seqRows, seqLines := runAt(1)
	parRows, parLines := runAt(8)
	if fmt.Sprint(seqRows) != fmt.Sprint(parRows) {
		t.Fatalf("rows differ:\n j1: %v\n j8: %v", seqRows, parRows)
	}
	if fmt.Sprint(seqLines) != fmt.Sprint(parLines) {
		t.Fatalf("progress lines differ:\n j1: %v\n j8: %v", seqLines, parLines)
	}
}
