package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/partition"
)

// TestSegmentSpansCoverAndRespectCeiling is the segmentation property: the
// spans tile the range exactly, each stays within the ceiling (unless a
// single element already exceeds it), and a zero ceiling leaves the range
// unsplit — for dense and sparse wire layouts alike.
func TestSegmentSpansCoverAndRespectCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rowPtr := make([]int64, 301)
	for i := range rowPtr[1:] {
		rowPtr[i+1] = rowPtr[i] + int64(rng.Intn(40))
	}
	items := []Item{
		NewDenseVirtual("d", 5000, 8, true),
		NewSparseVirtual("s", rowPtr, 12, 4, true),
	}
	for _, it := range items {
		for iter := 0; iter < 200; iter++ {
			lo := int64(rng.Intn(int(it.Elements())))
			hi := lo + 1 + int64(rng.Intn(int(it.Elements()-lo)))
			ceiling := int64(1 + rng.Intn(2000))
			spans := segmentSpans(it, lo, hi, ceiling)
			cur := lo
			for _, sp := range spans {
				if sp.lo != cur || sp.hi <= sp.lo {
					t.Fatalf("%s [%d,%d) ceiling %d: bad span [%d,%d) at cursor %d",
						it.Name(), lo, hi, ceiling, sp.lo, sp.hi, cur)
				}
				if n := it.WireBytes(sp.lo, sp.hi); n > ceiling && sp.hi-sp.lo > 1 {
					t.Fatalf("%s [%d,%d) ceiling %d: span [%d,%d) carries %d bytes",
						it.Name(), lo, hi, ceiling, sp.lo, sp.hi, n)
				}
				cur = sp.hi
			}
			if cur != hi {
				t.Fatalf("%s [%d,%d) ceiling %d: spans end at %d", it.Name(), lo, hi, ceiling, cur)
			}
			if got := segmentSpans(it, lo, hi, 0); len(got) != 1 || got[0] != (span{lo, hi}) {
				t.Fatalf("zero ceiling split [%d,%d) into %v", lo, hi, got)
			}
		}
	}
}

// TestWaveCuts pins the wave grouping: consecutive, exhaustive, within the
// ceiling except for single oversized entries.
func TestWaveCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		sizes := make([]int64, rng.Intn(40))
		for i := range sizes {
			sizes[i] = int64(rng.Intn(500))
		}
		ceiling := int64(1 + rng.Intn(800))
		cuts := waveCuts(sizes, ceiling)
		if len(sizes) == 0 {
			if cuts != nil {
				t.Fatalf("empty sizes gave cuts %v", cuts)
			}
			continue
		}
		prev := 0
		for _, end := range cuts {
			if end <= prev || end > len(sizes) {
				t.Fatalf("cuts %v not consecutive over %d sizes", cuts, len(sizes))
			}
			var sum int64
			for _, n := range sizes[prev:end] {
				sum += n
			}
			if sum > ceiling && end-prev > 1 {
				t.Fatalf("wave [%d,%d) sums to %d over ceiling %d", prev, end, sum, ceiling)
			}
			prev = end
		}
		if prev != len(sizes) {
			t.Fatalf("cuts %v cover %d of %d sizes", cuts, prev, len(sizes))
		}
	}

	// An unbounded ceiling puts every entry into one wave.
	for _, ceiling := range []int64{0, -1} {
		if cuts := waveCuts([]int64{5, 900, 0, 7}, ceiling); len(cuts) != 1 || cuts[0] != 4 {
			t.Fatalf("ceiling %d gave cuts %v, want one wave [4]", ceiling, cuts)
		}
	}
	it := NewDenseVirtual("d", 5000, 8, true)
	chunks := []partition.Chunk{{Src: 0, Dst: 1, Lo: 0, Hi: 1000}, {Src: 0, Dst: 2, Lo: 1000, Hi: 1250}}
	segs, waves, peak := PlanWaveSchedule(it, chunks, 0)
	if segs != 2 || waves != 1 || peak != 1250*8 {
		t.Fatalf("PlanWaveSchedule(ceiling 0) = (%d, %d, %d), want (2, 1, %d)", segs, waves, peak, 1250*8)
	}
}

// TestMemCeilingWavesDeliverIdenticalData is the end-to-end wave property:
// every P2P and RMA variant moving real bytes must deliver identical data
// under the unbounded one-wave schedule, under tight ceilings (forcing both
// segmentation and multi-wave schedules), and under a single bounded wave.
// runScenario verifies every target's block element by element.
func TestMemCeilingWavesDeliverIdenticalData(t *testing.T) {
	pairs := []struct{ ns, nt int }{{2, 5}, {5, 2}, {4, 4}, {1, 6}, {6, 1}}
	// 96 bytes sits below the 256-byte eager threshold (segments go eager)
	// while 2000 keeps rendezvous segments; both force several waves for the
	// 8000-byte items. 1 MiB holds each rank's whole traffic in a single
	// bounded wave, and 0 is the unbounded one-shot schedule.
	for _, ceiling := range []int64{0, 96, 2000, 1 << 20} {
		for _, spawn := range []SpawnMethod{Baseline, Merge} {
			for _, comm := range []CommMethod{P2P, RMA} {
				for _, ov := range []Overlap{Sync, NonBlocking, Thread} {
					cfg := Config{Spawn: spawn, Comm: comm, Overlap: ov, MemCeiling: ceiling}
					for _, p := range pairs {
						name := fmt.Sprintf("%s/cap%d/%dto%d", cfg, ceiling, p.ns, p.nt)
						t.Run(name, func(t *testing.T) {
							runScenario(t, cfg, p.ns, p.nt)
						})
					}
				}
			}
		}
	}
}

// TestMemCeilingReportsPeakGauge runs a wave-scheduled reconfiguration with
// a streaming sink attached and checks the transfers published their
// high-water footprint under the expected gauge name.
func TestMemCeilingReportsPeakGauge(t *testing.T) {
	for _, comm := range []CommMethod{P2P, RMA} {
		t.Run(comm.String(), func(t *testing.T) {
			const n, ns, nt = 1000, 4, 2
			w := testWorld(t)
			stream := obs.NewStream()
			w.SetSink(stream)
			cfg := Config{Spawn: Merge, Comm: comm, Overlap: Sync, MemCeiling: 512}
			w.Launch(ns, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
				st := buildStore(n, ns, comm.Rank(c))
				r := StartReconfig(c, cfg, comm, nt, st,
					func() *Store { return emptyStore(n) },
					func(*mpi.Ctx, *mpi.Comm, *Store) {})
				r.Wait(c)
			})
			if err := w.Kernel().Run(); err != nil {
				t.Fatal(err)
			}
			peak := stream.Gauge(PeakLiveBytesGauge)
			if peak <= 0 {
				t.Fatalf("no %s gauge reported", PeakLiveBytesGauge)
			}
			// The ceiling bounds each rank's own outgoing wave (P2P) or
			// pulled wave (RMA); incoming traffic adds up to ns-1 peers'
			// concurrent waves on a dual-role rank, so ns ceilings is the
			// hard bound at this geometry (every segment fits the ceiling).
			if peak > float64(ns)*float64(cfg.MemCeiling) {
				t.Fatalf("peak live bytes %g exceeds %d ceilings of %d bytes", peak, ns, cfg.MemCeiling)
			}
		})
	}
}
