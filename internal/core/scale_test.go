package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// The scale-shrink cell: a Merge 2:1 shrink of a virtual dense item, one
// 64 KiB block per source, under a 16 KiB per-rank ceiling, so every rank
// runs a multi-wave schedule.
const (
	shrinkElemsPerRank = 8192
	shrinkCeiling      = 16 << 10
)

func shrinkConfigs() []Config {
	return []Config{
		{Spawn: Merge, Comm: P2P, Overlap: Sync, MemCeiling: shrinkCeiling},
		{Spawn: Merge, Comm: RMA, Overlap: Sync, MemCeiling: shrinkCeiling},
	}
}

// launchShrink builds a world of n ranks on the default 10 GbE cluster and
// launches the shrink to n/2 ranks under cfg, a resilient pass with a
// detector that sees no failure when resilient is set; running its kernel
// runs the reconfiguration. Survivors check that they hold the new
// communicator.
func launchShrink(tb testing.TB, n int, cfg Config, resilient bool) *mpi.World {
	opts := mpi.DefaultOptions()
	opts.SchedQuantum = 30e-3
	w := mpi.NewWorld(cluster.New(sim.NewKernel(), cluster.Default(netmodel.Ethernet10G())), opts)
	var res *Resilience
	if resilient {
		res = &Resilience{Detector: newStubDetector(w)}
	}
	nt := n / 2
	elems := int64(n) * shrinkElemsPerRank
	w.Launch(n, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		st := NewStore()
		it := NewDenseVirtual("x", elems, 8, false)
		r := int64(comm.Rank(c))
		it.SetBlock(r*shrinkElemsPerRank, (r+1)*shrinkElemsPerRank)
		st.Register(it)
		rc := StartReconfigRes(c, cfg, comm, nt, st, nil, nil, res)
		rc.Wait(c)
		if rc.Continues() && rc.NewComm().Size() != nt {
			tb.Errorf("rank %d: new communicator of %d ranks, want %d", r, rc.NewComm().Size(), nt)
		}
	})
	return w
}

// shrinkBytesPerRank runs one launched shrink and returns the bytes the
// run allocated per rank. Nothing else in the process may allocate
// meanwhile, so callers must not run in parallel.
func shrinkBytesPerRank(tb testing.TB, w *mpi.World, n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := w.Kernel().Run(); err != nil {
		tb.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// maxShrinkGrowth bounds how much the bytes a shrink allocates per rank
// may grow from 256 to 1024 ranks. A per-rank cost that stays flat with
// world size measures about 1.0; building each survivor its own copy of
// the new group (8·NT bytes per rank) measured 1.30 for P2P and 1.49 for
// RMA.
const maxShrinkGrowth = 1.15

// TestShrinkScaleContract is the scale contract of the Merge shrink: the
// host memory a rank allocates during the reconfiguration must not grow
// with the world.
func TestShrinkScaleContract(t *testing.T) {
	for _, cfg := range shrinkConfigs() {
		t.Run(cfg.String(), func(t *testing.T) {
			var perRank [2]float64
			for i, n := range []int{256, 1024} {
				perRank[i] = shrinkBytesPerRank(t, launchShrink(t, n, cfg, false), n)
			}
			growth := perRank[1] / perRank[0]
			t.Logf("bytes/rank: %.0f at 256 ranks, %.0f at 1024 ranks (growth %.2fx)", perRank[0], perRank[1], growth)
			if growth > maxShrinkGrowth {
				t.Errorf("bytes allocated per rank grew %.2fx from 256 to 1024 ranks (%.0f -> %.0f), want at most %.2fx",
					growth, perRank[0], perRank[1], maxShrinkGrowth)
			}
		})
	}
}

// maxShrinkBytesPerRank bounds the host memory a rank allocates in a
// 1024-rank shrink, the first in its process (no warm message state).
// When Isend, Irecv and Get allocated the requests they return, a P2PS
// rank allocated 6224 bytes and an RMAS rank 3997. With those requests
// drawn from the world's pool and freed by core, and core.Store without
// its name map, they measured 5374 and 2784 (5478 and 2856 under -race).
// The bounds are the new levels plus 10%.
var maxShrinkBytesPerRank = map[CommMethod]float64{P2P: 5910, RMA: 3060}

// TestShrinkBytesPerRank: a 1024-rank Merge P2PS or RMAS shrink allocates
// no more host memory per rank than the pooled requests leave it.
func TestShrinkBytesPerRank(t *testing.T) {
	const n = 1024
	for _, cfg := range shrinkConfigs() {
		got := shrinkBytesPerRank(t, launchShrink(t, n, cfg, false), n)
		t.Logf("%s: %.0f bytes/rank at %d ranks", cfg, got, n)
		if max := maxShrinkBytesPerRank[cfg.Comm]; got > max {
			t.Errorf("%s: %.0f bytes allocated per rank at %d ranks, want at most %.0f", cfg, got, n, max)
		}
	}
}

// BenchmarkShrink times the Merge P2PS and RMAS 2:1 shrinks at N =
// 10²/10³/10⁴ ranks, the world built outside the timer; bytes/rank is the
// host memory the run allocates per rank.
func BenchmarkShrink(b *testing.B) {
	for _, cfg := range shrinkConfigs() {
		for _, n := range []int{100, 1000, 10000} {
			b.Run(fmt.Sprintf("%s/N=%d", cfg, n), func(b *testing.B) {
				b.ReportAllocs()
				var bytes float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := launchShrink(b, n, cfg, false)
					b.StartTimer()
					bytes += shrinkBytesPerRank(b, w, n)
				}
				b.ReportMetric(bytes/float64(b.N), "bytes/rank")
			})
		}
	}
}
