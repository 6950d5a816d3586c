package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netmodel"
	"repro/internal/obs"
)

// TestBenchObsDeterministic streams the ethernet 40->20 Merge COL
// non-blocking cell twice and requires bit-identical snapshot
// serialization, a snapshot that reads back under its own schema, and a
// fixed telemetry footprint below the full event log's.
func TestBenchObsDeterministic(t *testing.T) {
	s := harness.DefaultSetup(netmodel.Ethernet10G())
	p := harness.Pair{NS: 40, NT: 20}
	cfg := core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.NonBlocking}
	serialize := func() (obs.Snapshot, []byte) {
		t.Helper()
		stream := obs.NewStream()
		if _, err := s.RunCellSink(p, cfg, 0, stream); err != nil {
			t.Fatal(err)
		}
		snap := stream.Snapshot()
		var buf bytes.Buffer
		if err := snap.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return snap, buf.Bytes()
	}
	snap, a := serialize()
	_, b := serialize()
	if !bytes.Equal(a, b) {
		t.Fatalf("streamed snapshot not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	back, err := obs.ReadSnapshot(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("freshly written snapshot does not read back: %v", err)
	}
	if back.Events != snap.Events || back.Makespan != snap.Makespan {
		t.Errorf("read-back snapshot differs: events %d/%d makespan %g/%g",
			back.Events, snap.Events, back.Makespan, snap.Makespan)
	}
	if snap.Events == 0 {
		t.Fatal("streamed run recorded no events")
	}
	// 96 bytes is the accounting size of one recorded trace.Event.
	if log := 96 * int64(snap.Events); snap.TelemetryBytes >= log {
		t.Errorf("stream footprint %d bytes not below the full log's %d", snap.TelemetryBytes, log)
	}
}
