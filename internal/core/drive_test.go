package core

import (
	"fmt"
	"testing"
)

// TestResilientDriveFaultFreeNeverExpires is the liveness oracle of the
// resilient drive: parked deadline waits resume only when their drive's
// readiness holds, so a readiness that missed a step the drive could take
// would leave its rank parked until the deadline. In a fault-free pass
// whose epochs fit the deadline, no drive's wait may end there: none may
// return false, and none may return true only because the deadline event
// ended its last park (the lost wake's step then completes at the
// deadline). The second case is told apart from a step that computes past
// the deadline (an RMA target's install) by where the rank was when the
// deadline fired: a step that starts at or past the deadline after one
// that ended before it was resumed from a park; a step that started before
// the deadline and ran past it was computing, and is not counted. The
// cells are TestTransferGolden's fault-free resilient ones, plus every
// spawn and network method at 40->20 and 20->40 (a resilient pass runs the
// A and T overlaps as S).
func TestResilientDriveFaultFreeNeverExpires(t *testing.T) {
	var cells []*goldenCell
	for _, g := range goldenCells() {
		if g.resilient && !g.crash && !g.drop && !g.rung3 {
			cells = append(cells, g)
		}
	}
	for _, spawn := range []SpawnMethod{Baseline, Merge} {
		for _, comm := range []CommMethod{P2P, COL, RMA} {
			for _, p := range [][2]int{{40, 20}, {20, 40}} {
				cfg := Config{Spawn: spawn, Comm: comm, Overlap: Sync}
				cells = append(cells, &goldenCell{cfg: cfg, ns: p[0], nt: p[1], resilient: true,
					Name: fmt.Sprintf("%s/%dto%d", cfg, p[0], p[1])})
			}
		}
	}
	for _, g := range cells {
		if n := registryOf(g.simulate(t, -1)).expiries; n != 0 {
			t.Errorf("%s: %d resilient deadline waits expired in a fault-free pass, want 0", g.Name, n)
		}
	}
}

// BenchmarkResilientPass times a fault-free resilient Merge 2:1 shrink,
// the world built outside the timer: P2PS and RMAS at N = 10²/10³ ranks
// under the scale-shrink ceiling, and COLS, whose messages grow as N², at
// 10². resumes/op and reparks/op are the kernel's coroutine resumes and
// kernel re-parks per pass; a wake the resilient drive cannot act on is a
// re-park.
func BenchmarkResilientPass(b *testing.B) {
	cols := Config{Spawn: Merge, Comm: COL, Overlap: Sync}
	for _, cfg := range append(shrinkConfigs(), cols) {
		sizes := []int{100, 1000}
		if cfg.Comm == COL {
			sizes = sizes[:1]
		}
		for _, n := range sizes {
			b.Run(fmt.Sprintf("%s/N=%d", cfg, n), func(b *testing.B) {
				b.ReportAllocs()
				var resumes, reparks uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					w := launchShrink(b, n, cfg, true)
					b.StartTimer()
					if err := w.Kernel().Run(); err != nil {
						b.Fatal(err)
					}
					st := w.Kernel().Stats()
					resumes += st.Resumes
					reparks += st.Reparks
				}
				b.ReportMetric(float64(resumes)/float64(b.N), "resumes/op")
				b.ReportMetric(float64(reparks)/float64(b.N), "reparks/op")
			})
		}
	}
}
