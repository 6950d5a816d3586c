package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// synthEvents builds a deterministic pseudo-run: compute spans, sends and
// matching recvs, phases, and a sprinkling of fault instants.
func synthEvents(n int, seed int64) []trace.Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]trace.Event, 0, n)
	t := 0.0
	for i := 0; i < n; i++ {
		rank := rng.Intn(8)
		d := rng.Float64() * 0.01
		switch i % 7 {
		case 0, 1:
			events = append(events, trace.Event{Kind: trace.EvCompute, Rank: rank,
				Start: t, End: t + d, Peer: -1, Tag: -1, Comm: -1, Op: "compute"})
		case 2:
			b := int64(rng.Intn(1 << 20))
			events = append(events, trace.Event{Kind: trace.EvSend, Rank: rank,
				Start: t, End: t, Peer: (rank + 1) % 8, Tag: 1, Comm: 0, Bytes: b, Op: "Isend"})
			events = append(events, trace.Event{Kind: trace.EvRecv, Rank: (rank + 1) % 8,
				Start: t, End: t + d, Peer: rank, Tag: 1, Comm: 0, Bytes: b, Op: "Recv"})
		case 3:
			events = append(events, trace.Event{Kind: trace.EvBarrier, Rank: rank,
				Start: t, End: t + d, Peer: -1, Tag: -1, Comm: 0, Op: "Barrier"})
		case 4:
			events = append(events, trace.Event{Kind: trace.EvPhase, Rank: rank,
				Start: t, End: t + d, Peer: -1, Tag: -1, Comm: -1, Op: trace.PhaseRedistVar, Phase: trace.PhaseRedistVar})
		case 5:
			events = append(events, trace.Event{Kind: trace.EvFault, Rank: rank,
				Start: t, End: t, Peer: rank, Tag: -1, Comm: -1, Op: "crash"})
		case 6:
			events = append(events, trace.Event{Kind: trace.EvFault, Rank: rank,
				Start: t, End: t, Peer: -1, Tag: 1 + i%3, Comm: -1, Op: "escalate"})
			events = append(events, trace.Event{Kind: trace.EvPhase, Rank: rank,
				Start: t, End: t + d, Peer: -1, Tag: -1, Comm: -1, Op: trace.PhaseRecovery, Phase: trace.PhaseRecovery})
		}
		t += d
	}
	return events
}

func TestStreamCountersAndRanks(t *testing.T) {
	s := NewStream()
	events := synthEvents(700, 1)
	var sends, faults int64
	for _, ev := range events {
		s.Record(ev)
		if ev.Kind == trace.EvSend {
			sends++
		}
		if ev.Kind == trace.EvFault {
			faults++
		}
	}
	if s.Events() != uint64(len(events)) {
		t.Fatalf("events = %d, want %d", s.Events(), len(events))
	}
	snap := s.Snapshot()
	if got := snap.Counter("events/send"); got != sends {
		t.Fatalf("events/send = %d, want %d", got, sends)
	}
	if got := snap.Counter("wire/msgs/app"); got != sends {
		t.Fatalf("wire/msgs/app = %d, want %d", got, sends)
	}
	if got := snap.Counter("fault/crash") + snap.Counter("fault/escalate"); got != faults {
		t.Fatalf("fault counters = %d, want %d", got, faults)
	}
	if snap.Ranks != 8 {
		t.Fatalf("ranks = %d, want 8", snap.Ranks)
	}
	for _, rs := range snap.RankStats {
		if rs.Utilization < 0 || rs.Utilization > 1.000001 {
			t.Fatalf("rank %d utilization %g out of range", rs.Rank, rs.Utilization)
		}
	}
}

// TestStreamMemoryConstant is the acceptance-criteria memory test: the
// stream's telemetry footprint must not grow with the event count.
func TestStreamMemoryConstant(t *testing.T) {
	s := NewStream()
	for _, ev := range synthEvents(500, 2) {
		s.Record(ev)
	}
	before := s.MemoryBytes()
	for _, ev := range synthEvents(100000, 3) {
		s.Record(ev)
	}
	after := s.MemoryBytes()
	if after != before {
		t.Fatalf("telemetry bytes grew %d -> %d over 100k more events; stream memory must be constant in event count", before, after)
	}
}

func TestStreamMergeMatchesSequential(t *testing.T) {
	events := synthEvents(900, 4)
	whole := NewStream()
	for _, ev := range events {
		whole.Record(ev)
	}
	a, b := NewStream(), NewStream()
	for _, ev := range events[:400] {
		a.Record(ev)
	}
	for i, ev := range events[400:] {
		b.Record(ev)
		if i == 200 {
			b.fold() // b merges half folded, half not
		}
	}
	a.Merge(b)

	sa, sw := a.Snapshot(), whole.Snapshot()
	if sa.Events != sw.Events || sa.Makespan != sw.Makespan {
		t.Fatalf("merged events/makespan %d/%g != sequential %d/%g",
			sa.Events, sa.Makespan, sw.Events, sw.Makespan)
	}
	if len(sa.Counters) != len(sw.Counters) {
		t.Fatalf("counter sets differ: %d vs %d", len(sa.Counters), len(sw.Counters))
	}
	for i := range sa.Counters {
		if sa.Counters[i] != sw.Counters[i] {
			t.Fatalf("counter %v != %v", sa.Counters[i], sw.Counters[i])
		}
	}
	for i := range sa.Hists {
		if sa.Hists[i].Name != sw.Hists[i].Name || sa.Hists[i].Hist.Count != sw.Hists[i].Hist.Count {
			t.Fatalf("hist %q count %d != %q %d", sa.Hists[i].Name, sa.Hists[i].Hist.Count,
				sw.Hists[i].Name, sw.Hists[i].Hist.Count)
		}
	}
	for i := range sa.RankStats {
		if sa.RankStats[i] != sw.RankStats[i] {
			t.Fatalf("rank stat %+v != %+v", sa.RankStats[i], sw.RankStats[i])
		}
	}
}

func TestStreamResetReuse(t *testing.T) {
	s := NewStream()
	for _, ev := range synthEvents(300, 5) {
		s.Record(ev)
	}
	s.Reset()
	if s.Events() != 0 || s.Makespan() != 0 || len(s.flight.Recent()) != 0 {
		t.Fatalf("reset stream retains state: events=%d", s.Events())
	}
	// A reset stream must behave exactly like a fresh one.
	fresh := NewStream()
	for _, ev := range synthEvents(300, 6) {
		s.Record(ev)
		fresh.Record(ev)
	}
	var got, want bytes.Buffer
	if err := s.Snapshot().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Snapshot().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("reused stream snapshot differs from fresh stream snapshot")
	}
}

// ObserveNamedN must leave the stream exactly as n ObserveNamed calls do,
// down to the histogram sum's bits (0.1 is inexact, so a multiplied sum
// would differ).
func TestObserveNamedNMatchesRepeats(t *testing.T) {
	bulk, each := NewStream(), NewStream()
	for i, v := range []float64{0.1, 3, 0.1, -2, 7.25} {
		n := 1 + 37*i
		bulk.ObserveNamedN("queue/depth", v, n)
		for k := 0; k < n; k++ {
			each.ObserveNamed("queue/depth", v)
		}
	}
	bulk.ObserveNamedN("queue/depth", 5, 0)
	var got, want bytes.Buffer
	if err := bulk.Snapshot().WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := each.Snapshot().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("ObserveNamedN snapshot differs from repeated ObserveNamed:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
}

func TestFlightRecorderRetention(t *testing.T) {
	f := NewFlightRecorder()
	for i := 0; i < 2*recentCap; i++ {
		f.Record(trace.Event{Kind: trace.EvCompute, Rank: i, Start: float64(i), End: float64(i)})
	}
	f.Record(trace.Event{Kind: trace.EvFault, Rank: 1, Op: "crash", Start: 1e6, End: 1e6})
	for i := 0; i < recentCap; i++ {
		f.Record(trace.Event{Kind: trace.EvCompute, Rank: i, Start: float64(1e6 + 1 + i), End: float64(1e6 + 1 + i)})
	}
	recent := f.Recent()
	if len(recent) != recentCap {
		t.Fatalf("recent ring holds %d, want %d", len(recent), recentCap)
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].Start < recent[i-1].Start {
			t.Fatal("recent ring not oldest-first")
		}
	}
	// The fault was overwritten in the recent ring but must survive in the
	// anomaly ring.
	anoms := f.Anomalies()
	if len(anoms) != 1 || anoms[0].Op != "crash" {
		t.Fatalf("anomalies = %+v, want the single crash event", anoms)
	}
	for i := 0; i < 2*anomalyCap; i++ {
		f.Record(trace.Event{Kind: trace.EvFault, Op: "drop", Start: float64(2e6 + i), End: float64(2e6 + i)})
	}
	if anoms := f.Anomalies(); len(anoms) != anomalyCap || anoms[0].Op != "drop" || anoms[0].Start != 2e6+anomalyCap {
		t.Fatalf("anomaly ring holds %d events starting %+v, want the last %d drops", len(anoms), anoms[0], anomalyCap)
	}
	if events, anomalies := f.recent.total, f.anomalies.total; events != 3*recentCap+1+2*anomalyCap || anomalies != 1+2*anomalyCap {
		t.Fatalf("seen = %d/%d, want %d/%d", events, anomalies, 3*recentCap+1+2*anomalyCap, 1+2*anomalyCap)
	}
}

func TestSnapshotJSONRoundTripDeterministic(t *testing.T) {
	s := NewStream()
	for _, ev := range synthEvents(600, 8) {
		s.Record(ev)
	}
	var b1, b2 bytes.Buffer
	if err := s.Snapshot().WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot().WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("repeated snapshots of the same stream serialize differently")
	}
	back, err := ReadSnapshot(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b3 bytes.Buffer
	if err := back.WriteJSON(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("snapshot does not round-trip byte-identically through JSON")
	}
	if _, err := ReadSnapshot(strings.NewReader(`{"schema":"bogus/v0"}`)); err == nil {
		t.Fatal("ReadSnapshot accepted an unknown schema")
	}
}

func TestFromEventsMatchesLive(t *testing.T) {
	events := synthEvents(500, 9)
	live := NewStream()
	for _, ev := range events {
		live.Record(ev)
	}
	replay := FromEvents(events)
	var a, b bytes.Buffer
	if err := live.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := replay.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("FromEvents snapshot differs from live-recorded snapshot")
	}
}

func TestWriteHTMLReport(t *testing.T) {
	s := NewStream()
	for _, ev := range synthEvents(800, 10) {
		s.Record(ev)
	}
	snap := s.Snapshot()
	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, "test report", snap); err != nil {
		t.Fatal(err)
	}
	html := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "test report", "<svg", "Per-rank utilization",
		"Fault &amp; recovery-rung breakdown", "Flight recorder",
		fmt.Sprintf("%d events", snap.Events),
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(html, "<script") {
		t.Error("report must be static HTML with no scripts")
	}
}
