package core

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/transfer_golden.json from the current simulator")

const goldenFile = "testdata/transfer_golden.json"

// goldenCell is one re-simulated reconfiguration of the transfer golden
// file. Resilient cells run the recovery protocol; crash cells kill source
// gid 3 in the middle of the variable-data redistribution, drop cells lose
// the first redistribution message a source sends, and rung-3 cells lose
// every payload of one method for good, so the selective round fails too
// and the pass restores from the checkpoint. MaxRung (the highest
// "escalate" tag, -1 for none) and CRRestores (checkpoint span reads) pin
// how far up the recovery ladder each cell climbs.
type goldenCell struct {
	cfg                Config
	ns, nt             int
	resilient          bool
	crash, drop, rung3 bool
	Name               string `json:"name"`
	ReconfigEnd        string `json:"reconfig_end"`
	AppEnd             string `json:"app_end"`
	Checksum           string `json:"checksum"`
	Sends              int64  `json:"sends"`
	Recvs              int64  `json:"recvs"`
	SendBytes          int64  `json:"send_bytes"`
	RecvBytes          int64  `json:"recv_bytes"`
	MaxRung            int    `json:"max_rung"`
	CRRestores         int64  `json:"cr_restores"`
	redistVarMid       float64
	redistVarSeen      bool
	// The variable-redistribution traffic window, the crash point of cells
	// whose surviving ranks record only an instant redist-var span (a
	// passive RMA source in Baseline: the spawned targets do the pulling).
	wireLo, wireHi float64
	wireSeen       bool
}

// goldenSink counts the world's point-to-point traffic, checkpoint reads and
// ladder escalations, and remembers the first variable-redistribution phase
// span and traffic window, where crash cells strike.
type goldenSink struct{ cell *goldenCell }

func (s goldenSink) Record(ev trace.Event) {
	if (ev.Kind == trace.EvSend || ev.Kind == trace.EvRecv) && ev.Phase == trace.PhaseRedistVar {
		if !s.cell.wireSeen || ev.Start < s.cell.wireLo {
			s.cell.wireLo = ev.Start
		}
		if !s.cell.wireSeen || ev.End > s.cell.wireHi {
			s.cell.wireHi = ev.End
		}
		s.cell.wireSeen = true
	}
	switch ev.Kind {
	case trace.EvSend:
		s.cell.Sends++
		s.cell.SendBytes += ev.Bytes
	case trace.EvRecv:
		s.cell.Recvs++
		s.cell.RecvBytes += ev.Bytes
	case trace.EvPhase:
		if ev.Op == trace.PhaseRedistVar && !s.cell.redistVarSeen && ev.End > ev.Start {
			s.cell.redistVarSeen = true
			s.cell.redistVarMid = (ev.Start + ev.End) / 2
		}
	case trace.EvFault:
		if ev.Op == "escalate" && ev.Tag > s.cell.MaxRung {
			s.cell.MaxRung = ev.Tag
		}
	case trace.EvCompute:
		if ev.Op == "cr-restore" {
			s.cell.CRRestores++
		}
	}
}

// goldenCells lists the pinned grid: every paper configuration at a shrink
// and an expansion, P2P and RMA again under a multi-wave memory ceiling,
// resilient Baseline and Merge passes of every method fault-free, after a
// crash and after a drop (P2P and RMA both unbounded and under the
// ceiling), and one rung-3 checkpoint fallback each for P2P and RMA.
func goldenCells() []*goldenCell {
	const ceiling = 512
	pairs := [][2]int{{4, 2}, {2, 5}}
	var cells []*goldenCell
	add := func(c *goldenCell) {
		mode := ""
		switch {
		case c.crash:
			mode = "/crash"
		case c.drop:
			mode = "/drop"
		case c.rung3:
			mode = "/rung3"
		case c.resilient:
			mode = "/resilient"
		}
		c.Name = fmt.Sprintf("%s/cap%d/%dto%d%s", c.cfg, c.cfg.MemCeiling, c.ns, c.nt, mode)
		cells = append(cells, c)
	}
	for _, ceil := range []int64{0, ceiling} {
		for _, spawn := range []SpawnMethod{Baseline, Merge} {
			for _, comm := range []CommMethod{P2P, RMA, COL} {
				if ceil > 0 && comm == COL {
					continue // Algorithm 2 ignores the ceiling
				}
				for _, ov := range []Overlap{Sync, NonBlocking, Thread} {
					for _, p := range pairs {
						cfg := Config{Spawn: spawn, Comm: comm, Overlap: ov, MemCeiling: ceil}
						add(&goldenCell{cfg: cfg, ns: p[0], nt: p[1]})
					}
				}
			}
		}
	}
	for _, ceil := range []int64{0, ceiling} {
		for _, spawn := range []SpawnMethod{Baseline, Merge} {
			for _, comm := range []CommMethod{P2P, RMA, COL} {
				if ceil > 0 && comm == COL {
					continue
				}
				cfg := Config{Spawn: spawn, Comm: comm, Overlap: Sync, MemCeiling: ceil}
				for _, p := range pairs {
					add(&goldenCell{cfg: cfg, ns: p[0], nt: p[1], resilient: true})
				}
				add(&goldenCell{cfg: cfg, ns: 4, nt: 2, resilient: true, crash: true})
				add(&goldenCell{cfg: cfg, ns: 4, nt: 2, resilient: true, drop: true})
			}
		}
	}
	for _, comm := range []CommMethod{P2P, RMA} {
		cfg := Config{Spawn: Merge, Comm: comm, Overlap: Sync}
		add(&goldenCell{cfg: cfg, ns: 4, nt: 2, resilient: true, rung3: true})
	}
	return cells
}

// simulate runs the cell's reconfiguration, fills in its record and
// returns the finished world. crashAt is the victim's crash time (negative
// for none).
func (g *goldenCell) simulate(t *testing.T, crashAt float64) *mpi.World {
	t.Helper()
	const n = 1000
	g.Sends, g.Recvs, g.SendBytes, g.RecvBytes, g.redistVarSeen, g.wireSeen = 0, 0, 0, 0, false, false
	g.MaxRung, g.CRRestores = -1, 0
	w := testWorld(t)
	w.SetSink(goldenSink{g})
	var res *Resilience
	if g.resilient {
		res = &Resilience{}
		var rule *msgFault
		switch {
		case g.drop:
			rule = &msgFault{srcGID: 3, minTag: -1, maxTag: math.MaxInt32, count: 1, drop: true}
		case g.rung3 && g.cfg.Comm == RMA:
			// Every Get (sentinel tag -1), the attempt's and the re-pulls.
			rule = &msgFault{srcGID: -1, minTag: -1, maxTag: -1, count: -1, drop: true}
		case g.rung3:
			// Every value and recovery message of one source; the 77-family
			// size messages pass (TestRung3CheckpointFallback's rule).
			rule = &msgFault{srcGID: 3, minTag: 88, maxTag: 1<<20 - 1, count: -1, drop: true}
		}
		if rule != nil {
			res.Timeout = 0.5
			w.SetFaultHooks(&testMsgFaults{rules: []*msgFault{rule}})
		}
		det := newStubDetector(w)
		if crashAt >= 0 {
			det.killAt(3, crashAt)
		}
		res.Detector = det
	}

	sums := map[int]uint64{}
	var reconfigEnd float64
	done := func(c *mpi.Ctx, comm *mpi.Comm, st *Store) {
		h := fnv.New64a()
		for _, name := range []string{"matrix", "rhs", "x"} {
			it := st.Item(name).(*DenseItem)
			lo, hi := it.Block()
			var hdr [16]byte
			binary.LittleEndian.PutUint64(hdr[:8], uint64(lo))
			binary.LittleEndian.PutUint64(hdr[8:], uint64(hi))
			h.Write(hdr[:])
			h.Write(it.Data())
		}
		sums[comm.Rank(c)] = h.Sum64()
		reconfigEnd = math.Max(reconfigEnd, c.Now())
		c.Compute(1e-3) // the application resumes on its new block
	}
	w.Launch(g.ns, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		st := buildStore(n, g.ns, comm.Rank(c))
		mutate := func() {
			x := st.Item("x").(*DenseItem)
			vals := x.Float64s()
			lo, _ := x.Block()
			for i := range vals {
				vals[i] = globalValue(2, int(lo)+i) + sentinelOffset
			}
			copy(x.Data(), mpi.Float64s(vals).Data)
		}
		var r *Reconfig
		if g.resilient {
			r = StartReconfigRes(c, g.cfg, comm, g.nt, st, func() *Store { return emptyStore(n) }, done, res)
		} else {
			r = StartReconfig(c, g.cfg, comm, g.nt, st, func() *Store { return emptyStore(n) }, done)
		}
		if g.cfg.Asynchronous() {
			for !r.Test(c) {
				c.Compute(1e-4)
			}
			mutate()
			r.Finish(c)
		} else {
			mutate()
			r.Wait(c)
		}
		if r.Continues() {
			done(c, r.NewComm(), st)
		}
	})
	if err := w.Kernel().Run(); err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	if len(sums) != g.nt {
		t.Fatalf("%s: %d targets finished, want %d", g.Name, len(sums), g.nt)
	}
	ranks := make([]int, 0, len(sums))
	for r := range sums {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	h := fnv.New64a()
	for _, r := range ranks {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], sums[r])
		h.Write(b[:])
	}
	g.Checksum = fmt.Sprintf("%016x", h.Sum64())
	g.ReconfigEnd = fmt.Sprintf("%016x", math.Float64bits(reconfigEnd))
	g.AppEnd = fmt.Sprintf("%016x", math.Float64bits(w.Kernel().Now()))
	return w
}

// TestTransferGolden re-simulates a fixed grid of reconfigurations and
// compares each cell's virtual reconfiguration and application end times
// (exact float bits), delivered-data checksum and world traffic counts with
// the committed golden file. Any change to simulated behaviour fails here;
// an intended one regenerates the file with `go test -run TestTransferGolden
// -update` and explains the drift.
func TestTransferGolden(t *testing.T) {
	cells := goldenCells()
	for _, g := range cells {
		crashAt := -1.0
		if g.crash {
			// Strike mid-redistribution of the same cell run fault-free.
			g.simulate(t, -1)
			switch {
			case g.redistVarSeen:
				crashAt = g.redistVarMid
			case g.wireSeen:
				crashAt = (g.wireLo + g.wireHi) / 2
			default:
				t.Fatalf("%s: fault-free probe recorded no %s span or traffic", g.Name, trace.PhaseRedistVar)
			}
		}
		g.simulate(t, crashAt)
	}
	got, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var wantCells []goldenCell
	if err := json.Unmarshal(want, &wantCells); err != nil {
		t.Fatalf("%s: %v", goldenFile, err)
	}
	if len(wantCells) != len(cells) {
		t.Fatalf("%s has %d cells, the grid has %d", goldenFile, len(wantCells), len(cells))
	}
	for i, g := range cells {
		gotCell, _ := json.Marshal(g)
		wantCell, _ := json.Marshal(wantCells[i])
		if string(gotCell) != string(wantCell) {
			t.Errorf("cell %d drifted:\n got  %s\n want %s", i, gotCell, wantCell)
		}
	}
}
