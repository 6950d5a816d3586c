package harness

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/synthapp"
)

// TestCellFromWarmMessageStateIsBitExact: a paper cell gives the same
// result and the same kernel counters whether its world starts from a
// cold message-state pool or from the state another COL cell handed back,
// whose request lists are shorter than this cell needs and whose
// freelists hold that cell's peak.
func TestCellFromWarmMessageStateIsBitExact(t *testing.T) {
	s := DefaultSetup(netmodel.Ethernet10G())
	run := func(p Pair, cfg core.Config) (synthapp.Result, sim.Stats, uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		w := s.NewWorld(0)
		res, err := synthapp.Run(w, synthapp.RunParams{Cfg: s.Cfg, Malleability: cfg, NS: p.NS, NT: p.NT})
		if err != nil {
			t.Fatalf("%d->%d %s: %v", p.NS, p.NT, cfg, err)
		}
		stats := w.Kernel().Stats()
		w.Release()
		runtime.ReadMemStats(&m1)
		return res, stats, m1.Mallocs - m0.Mallocs
	}
	cell, cfg := Pair{NS: 160, NT: 20}, core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync}
	other, otherCfg := Pair{NS: 120, NT: 40}, core.Config{Spawn: core.Baseline, Comm: core.COL, Overlap: core.NonBlocking}

	// A sync.Pool keeps what it holds for at most two collections.
	runtime.GC()
	runtime.GC()
	coldRes, coldStats, coldMallocs := run(cell, cfg)
	run(other, otherCfg)
	warmRes, warmStats, warmMallocs := run(cell, cfg)
	t.Logf("%d->%d %s: %d objects allocated from a cold pool, %d from a warm one",
		cell.NS, cell.NT, cfg, coldMallocs, warmMallocs)
	if !reflect.DeepEqual(coldRes, warmRes) {
		t.Errorf("result from a warm pool differs:\ncold %+v\nwarm %+v", coldRes, warmRes)
	}
	if coldStats != warmStats {
		t.Errorf("kernel stats from a warm pool differ: cold %+v, warm %+v", coldStats, warmStats)
	}
}
