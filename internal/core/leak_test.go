package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// worldProbe is attached to a finished world as its sink, so it becomes
// unreachable exactly when the world does. A finalizer on the world itself
// would never run: its processes point back to it, and the collector does
// not finalize an object reachable from itself.
type worldProbe struct{ name string }

func (*worldProbe) Record(trace.Event) {}

// TestResilientWorldsCollected runs resilient cells — crashes, drops and
// rung-3 checkpoint restores of every method, and a checkpoint/restart
// transfer — drops every reference to their worlds, and checks that the
// collector reclaims each one: no per-pass state (epoch coordination,
// checkpoint files) may keep a finished world reachable.
func TestResilientWorldsCollected(t *testing.T) {
	var cells []*goldenCell
	for _, g := range goldenCells() {
		if g.cfg.MemCeiling == 0 && (g.crash || g.drop || g.rung3) {
			cells = append(cells, g)
		}
	}
	cells = append(cells, &goldenCell{cfg: Config{Spawn: Merge, Comm: CR, Overlap: Sync}, ns: 4, nt: 2, Name: "Merge CRS/4to2"})

	collected := make(chan string, 2*len(cells))
	worlds := 0
	probe := func(g *goldenCell, crashAt float64) {
		w := g.simulate(t, crashAt)
		p := &worldProbe{name: g.Name}
		w.SetSink(p)
		runtime.SetFinalizer(p, func(p *worldProbe) { collected <- p.name })
		worlds++
	}
	for _, g := range cells {
		crashAt := -1.0
		if g.crash {
			probe(g, -1)
			crashAt = g.redistVarMid
			if !g.redistVarSeen {
				crashAt = (g.wireLo + g.wireHi) / 2
			}
		}
		probe(g, crashAt)
	}

	for got, idle := 0, 0; got < worlds; {
		runtime.GC()
		select {
		case <-collected:
			got, idle = got+1, 0
		case <-time.After(20 * time.Millisecond):
			if idle++; idle == 50 {
				t.Fatalf("%d of %d finished resilient worlds are still reachable", worlds-got, worlds)
			}
		}
	}
}
