package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// chunkEvents returns n distinct events that exercise every Metrics and
// Chrome trace branch: each kind, spans and instants, wire traffic in
// every phase, and fault actions.
func chunkEvents(n int) []Event {
	kinds := []EventKind{EvSend, EvRecv, EvColl, EvCompute, EvSpawn, EvBarrier, EvPhase, EvFault}
	phases := []string{"", PhaseSpawn, PhaseRedistConst, PhaseRedistVar, PhaseHalt, PhaseProtect, PhaseRecovery}
	out := make([]Event, n)
	for i := range out {
		k := kinds[i%len(kinds)]
		ph := phases[i%len(phases)]
		op := fmt.Sprintf("op%d", i%5)
		switch k {
		case EvRecv:
			if i%3 == 0 {
				op = "Get"
			}
		case EvPhase:
			op = ph
		case EvFault:
			op = []string{"crash", "detect", "drop", "escalate"}[i%4]
		}
		start := float64(i) * 0.25
		end := start
		if i%2 == 0 {
			end += 0.5
		}
		out[i] = Event{
			Kind: k, Rank: i % 37, Start: start, End: end,
			Peer: i%11 - 1, Tag: i%13 - 1, Comm: i%3 - 1, Bytes: int64(i * 8),
			Op: op, Phase: ph,
		}
	}
	return out
}

// TestRecorderChunkBoundaries records logs that end just before, at and
// just past a chunk boundary, and one spanning four chunks: every reader
// must give the same output as the flat log.
func TestRecorderChunkBoundaries(t *testing.T) {
	for _, n := range []int{recorderChunk - 1, recorderChunk, recorderChunk + 1, 3*recorderChunk + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			flat := chunkEvents(n)
			r := NewRecorder()
			for _, ev := range flat {
				r.Record(ev)
			}
			flatSegs := [][]Event{flat}
			if r.Len() != n {
				t.Fatalf("Len = %d, want %d", r.Len(), n)
			}
			if got := r.Events(); !reflect.DeepEqual(got, flat) {
				t.Fatal("Events differs from the flat log")
			}
			if got, want := r.Metrics(), metricsOf(flatSegs); !reflect.DeepEqual(got, want) {
				t.Fatalf("Metrics differs from the flat log:\n%+v\nvs\n%+v", got, want)
			}
			var got, want bytes.Buffer
			if err := r.WriteEvents(&got); err != nil {
				t.Fatal(err)
			}
			if err := writeEventLog(&want, flatSegs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("WriteEvents differs from the flat log")
			}
			got.Reset()
			want.Reset()
			if err := r.WriteChromeTrace(&got); err != nil {
				t.Fatal(err)
			}
			if err := writeChromeTrace(&want, flatSegs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("WriteChromeTrace differs from the flat log")
			}
		})
	}
}

// TestRecorderResetAllocations pins Reset's reuse: a recorder refilled to
// a length it has held before allocates nothing.
func TestRecorderResetAllocations(t *testing.T) {
	evs := chunkEvents(3*recorderChunk + 1)
	r := NewRecorder()
	fill := func() {
		r.Reset()
		for _, ev := range evs {
			r.Record(ev)
		}
	}
	fill()
	if n := testing.AllocsPerRun(5, fill); n != 0 {
		t.Fatalf("refilling a reset recorder allocates %v objects, want 0", n)
	}
	if r.Len() != len(evs) {
		t.Fatalf("Len = %d after refill, want %d", r.Len(), len(evs))
	}
}

// BenchmarkRecorder records n events into a fresh recorder and takes the
// log's copy, as a traced run and its reader do.
func BenchmarkRecorder(b *testing.B) {
	for _, n := range []int{1000, 100000, 1000000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ev := Event{Kind: EvSend, Rank: 1, Start: 1, End: 1, Peer: 2, Tag: 3, Comm: 4, Bytes: 64, Op: "Isend", Phase: PhaseRedistVar}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRecorder()
				for j := 0; j < n; j++ {
					r.Record(ev)
				}
				if len(r.Events()) != n {
					b.Fatal("short log")
				}
			}
		})
	}
}
