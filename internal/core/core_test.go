package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/partition"
	"repro/internal/sim"
)

func testWorld(t *testing.T) *mpi.World {
	t.Helper()
	k := sim.NewKernel()
	cfg := cluster.Config{
		Nodes:        4,
		CoresPerNode: 4,
		Net: netmodel.Params{
			Name:           "test",
			Latency:        1e-6,
			Bandwidth:      1e9,
			IntraLatency:   1e-7,
			IntraBandwidth: 1e10,
			IntraPerFlow:   1e10,
		},
		SpawnBase:    1e-3,
		SpawnPerProc: 1e-4,
		Seed:         7,
		// The shared filesystem is an order of magnitude below the fabric,
		// as on real clusters (the §2 premise).
		FSBandwidth: 1e8,
		FSPerStream: 0.5e8,
		FSLatency:   1e-3,
	}
	opts := mpi.DefaultOptions()
	opts.EagerThreshold = 256 // exercise rendezvous with modest payloads
	return mpi.NewWorld(cluster.New(k, cfg), opts)
}

// globalValue defines the reference content of element i of item idx.
func globalValue(item, i int) float64 { return float64(item*1_000_000 + i) }

const sentinelOffset = 5_000_000 // variable data mutated before the halt

// buildStore registers two real constant items and one real variable item,
// filled with this rank's block of the reference content. n elements each.
func buildStore(n int64, ns, rank int) *Store {
	st := NewStore()
	dist := partition.NewBlockDist(n, ns)
	lo, hi := dist.Lo(rank), dist.Hi(rank)
	mk := func(idx int, name string, constant bool) {
		vals := make([]float64, hi-lo)
		for i := range vals {
			vals[i] = globalValue(idx, int(lo)+i)
		}
		st.Register(NewDenseFloat64(name, n, constant, lo, vals))
	}
	mk(0, "matrix", true)
	mk(1, "rhs", true)
	mk(2, "x", false)
	return st
}

// emptyStore registers the same items with no local block (spawned targets).
func emptyStore(n int64) *Store {
	st := NewStore()
	st.Register(NewDenseBytes("matrix", n, 8, true, 0, 0, nil))
	st.Register(NewDenseBytes("rhs", n, 8, true, 0, 0, nil))
	st.Register(NewDenseBytes("x", n, 8, false, 0, 0, nil))
	return st
}

// verifyStore checks that the store holds the correct new block of every
// item for target rank tgt of nt, with the variable item showing the
// mutated (sentinel) content.
func verifyStore(t *testing.T, label string, st *Store, n int64, nt, tgt int) {
	t.Helper()
	dist := partition.NewBlockDist(n, nt)
	lo, hi := dist.Lo(tgt), dist.Hi(tgt)
	for idx, name := range []string{"matrix", "rhs", "x"} {
		it := st.Item(name).(*DenseItem)
		gotLo, gotHi := it.Block()
		if gotLo != lo || gotHi != hi {
			t.Errorf("%s: %q block [%d,%d), want [%d,%d)", label, name, gotLo, gotHi, lo, hi)
			return
		}
		vals := it.Float64s()
		for i, v := range vals {
			want := globalValue(idx, int(lo)+i)
			if name == "x" {
				want += sentinelOffset
			}
			if v != want {
				t.Errorf("%s: %q[%d] = %g, want %g", label, name, int(lo)+i, v, want)
				return
			}
		}
	}
}

// runScenario executes one reconfiguration under cfg from ns to nt ranks
// and verifies every target's data. It returns the virtual completion time.
func runScenario(t *testing.T, cfg Config, ns, nt int) float64 {
	t.Helper()
	const n = 1000
	w := testWorld(t)
	var mu sync.Mutex
	verified := map[int]bool{}

	markVerified := func(tgt int) {
		mu.Lock()
		defer mu.Unlock()
		if verified[tgt] {
			t.Errorf("target %d verified twice", tgt)
		}
		verified[tgt] = true
	}

	target := func(ctx *mpi.Ctx, newComm *mpi.Comm, st *Store) {
		tgt := newComm.Rank(ctx)
		verifyStore(t, fmt.Sprintf("%s spawned target %d", cfg, tgt), st, n, nt, tgt)
		markVerified(tgt)
	}

	var finish float64
	w.Launch(ns, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		rank := comm.Rank(c)
		st := buildStore(n, ns, rank)
		mutate := func() {
			x := st.Item("x").(*DenseItem)
			vals := x.Float64s()
			lo, _ := x.Block()
			for i := range vals {
				vals[i] = globalValue(2, int(lo)+i) + sentinelOffset
			}
			copy(x.Data(), mpi.Float64s(vals).Data)
		}
		r := StartReconfig(c, cfg, comm, nt, st, func() *Store { return emptyStore(n) }, target)
		if cfg.Asynchronous() {
			iters := 0
			for !r.Test(c) {
				c.Compute(1e-4) // emulate application iterations
				iters++
				if iters > 100000 {
					t.Error("async reconfiguration never completed")
					return
				}
			}
			mutate() // variable data changes right up to the halt
			r.Finish(c)
		} else {
			mutate()
			r.Wait(c)
		}
		if r.Continues() {
			tgt := r.NewComm().Rank(c)
			verifyStore(t, fmt.Sprintf("%s surviving target %d", cfg, tgt), st, n, nt, tgt)
			markVerified(tgt)
			if c.Now() > finish {
				finish = c.Now()
			}
		}
	})
	if err := w.Kernel().Run(); err != nil {
		t.Fatalf("%s %d->%d: %v", cfg, ns, nt, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(verified) != nt {
		t.Fatalf("%s %d->%d: %d targets verified, want %d", cfg, ns, nt, len(verified), nt)
	}
	return finish
}

func TestAllConfigsRedistributeCorrectly(t *testing.T) {
	pairs := []struct{ ns, nt int }{
		{2, 5}, {5, 2}, {4, 4}, {3, 7}, {7, 3}, {1, 6}, {6, 1},
	}
	for _, cfg := range AllConfigs() {
		for _, p := range pairs {
			name := fmt.Sprintf("%s/%dto%d", cfg, p.ns, p.nt)
			t.Run(name, func(t *testing.T) {
				runScenario(t, cfg, p.ns, p.nt)
			})
		}
	}
}

func TestConfigStringsAndParse(t *testing.T) {
	for _, cfg := range AllConfigs() {
		s := cfg.String()
		got, err := ParseConfig(s)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", s, err)
		}
		if got != cfg {
			t.Fatalf("ParseConfig(%q) = %v", s, got)
		}
	}
	for _, s := range []string{"merge-col-a", "Baseline P2PT", "merge p2ps", "MERGE COLS"} {
		if _, err := ParseConfig(s); err != nil {
			t.Fatalf("ParseConfig(%q): %v", s, err)
		}
	}
	for _, s := range []string{"", "merge", "foo colA", "merge xyz", "merge cols extra junk"} {
		if _, err := ParseConfig(s); err == nil {
			t.Fatalf("ParseConfig(%q) succeeded, want error", s)
		}
	}
	if len(AllConfigs()) != 12 {
		t.Fatalf("AllConfigs() has %d entries, want 12", len(AllConfigs()))
	}
}

func TestStoreRegistry(t *testing.T) {
	st := NewStore()
	a := NewDenseVirtual("a", 100, 8, true)
	b := NewDenseVirtual("b", 50, 8, false)
	st.Register(a)
	st.Register(b)
	if st.Item("a") != Item(a) || st.Item("b") != Item(b) {
		t.Fatal("Item lookup failed")
	}
	if st.Item("missing") != nil {
		t.Fatal("missing item not nil")
	}
	if len(st.ConstantItems()) != 1 || len(st.VariableItems()) != 1 {
		t.Fatal("constant/variable filters wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	st.Register(NewDenseVirtual("a", 1, 8, true))
}

func TestSparseItemWireBytes(t *testing.T) {
	rowPtr := []int64{0, 5, 5, 12, 20}
	it := NewSparseVirtual("m", rowPtr, 12, 0, true)
	if it.Elements() != 4 {
		t.Fatalf("Elements = %d, want 4", it.Elements())
	}
	if it.WireBytes(0, 2) != 5*12 {
		t.Fatalf("WireBytes(0,2) = %d, want 60", it.WireBytes(0, 2))
	}
	if it.WireBytes(1, 4) != 15*12 {
		t.Fatalf("WireBytes(1,4) = %d, want 180", it.WireBytes(1, 4))
	}
}

func TestDenseItemOverlapPreservedOnPrepare(t *testing.T) {
	vals := []float64{10, 11, 12, 13}
	it := NewDenseFloat64("v", 10, true, 2, vals) // block [2,6)
	it.Prepare(4, 9)                              // overlap [4,6)
	got := it.Float64s()
	if got[0] != 12 || got[1] != 13 {
		t.Fatalf("overlap not preserved: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("new block has %d elements, want 5", len(got))
	}
}

func TestItemPhasesSplit(t *testing.T) {
	st := NewStore()
	st.Register(NewDenseVirtual("c1", 10, 8, true))
	st.Register(NewDenseVirtual("v1", 10, 8, false))
	st.Register(NewDenseVirtual("c2", 10, 8, true))

	async, final, asyncIdx, finalIdx := itemPhases(Config{Overlap: NonBlocking}, st)
	if len(async) != 2 || len(final) != 1 {
		t.Fatalf("async/final = %d/%d, want 2/1", len(async), len(final))
	}
	if asyncIdx[0] != 0 || asyncIdx[1] != 2 || finalIdx[0] != 1 {
		t.Fatalf("indices = %v %v", asyncIdx, finalIdx)
	}

	async, final, _, finalIdx = itemPhases(Config{Overlap: Sync}, st)
	if async != nil || len(final) != 3 {
		t.Fatalf("sync split wrong: %d/%d", len(async), len(final))
	}
	if finalIdx[0] != 0 || finalIdx[2] != 2 {
		t.Fatalf("sync indices = %v", finalIdx)
	}
}

func TestAsyncFasterAppThanSyncUnderOverlap(t *testing.T) {
	// Not a strict law at this scale, but the async variant must complete;
	// this guards the overlap machinery end to end with virtual items.
	for _, cfg := range []Config{
		{Spawn: Merge, Comm: COL, Overlap: NonBlocking},
		{Spawn: Merge, Comm: P2P, Overlap: Thread},
		{Spawn: Baseline, Comm: COL, Overlap: NonBlocking},
		{Spawn: Baseline, Comm: P2P, Overlap: Thread},
	} {
		runScenario(t, cfg, 4, 6)
		runScenario(t, cfg, 6, 4)
	}
}
