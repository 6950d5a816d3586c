package core

import (
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// TestCOLStageAllocationsFlatInPeers: staging a COL pass allocates the
// same number of objects whatever the number of peers, and its bytes grow
// with the peers no faster than the two payload slices the Alltoallv API
// takes (sendSizes and sendVals). Per-peer scaffolding — a list of pieces
// or a size vector per peer — would add to both. Source 1 of a Merge 2:1
// shrink sends its two items to target 0 alone, at every size.
func TestCOLStageAllocationsFlatInPeers(t *testing.T) {
	const small, large = 8, 256
	stageSmall, stageLarge := stageCost(t, small), stageCost(t, large)
	t.Logf("stage over %d peers: %g allocs, %g B; over %d peers: %g allocs, %g B",
		small, stageSmall.allocs, stageSmall.bytes, large, stageLarge.allocs, stageLarge.bytes)
	if stageLarge.allocs != stageSmall.allocs {
		t.Errorf("stage allocates %g objects over %d peers, %g over %d", stageLarge.allocs, large, stageSmall.allocs, small)
	}
	// The slices' own growth, size-class rounding included, plus a little
	// for the runtime's own allocations during the measurement.
	api := func(peers int) cost {
		return measureCost(func() {
			payloadSink[0], payloadSink[1] = make([]mpi.Payload, peers), make([]mpi.Payload, peers)
		})
	}
	apiGrowth := api(large).bytes - api(small).bytes
	if growth := stageLarge.bytes - stageSmall.bytes; growth > apiGrowth+8*(large-small) {
		t.Errorf("stage allocates %g B more over %d peers than over %d; its two payload slices account for %g",
			growth, large, small, apiGrowth)
	}
}

// payloadSink keeps the reference slices reachable, so the compiler
// cannot elide their allocation.
var payloadSink [2][]mpi.Payload

// cost is what one call allocates: objects and bytes.
type cost struct{ allocs, bytes float64 }

// measureCost returns what one call of f allocates, on average.
func measureCost(f func()) cost {
	const runs = 100
	allocs := testing.AllocsPerRun(runs, f)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return cost{allocs: allocs, bytes: float64(m1.TotalAlloc-m0.TotalAlloc) / runs}
}

// stageCost returns what staging source 1's chunks of a Merge 2:1 shrink
// over peers ranks allocates.
func stageCost(t *testing.T, peers int) cost {
	w := testWorld(t)
	var got cost
	w.Launch(peers, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		if comm.Rank(c) != 1 {
			return
		}
		a := NewDenseVirtual("a", int64(peers)*64, 8, true)
		x := NewDenseVirtual("x", int64(peers)*64, 4, false)
		a.SetBlock(64, 128)
		x.SetBlock(64, 128)
		tr := newCOLTransfer(newIntraView(c, comm, peers, peers/2), []Item{a, x})
		stage := func() {
			tr.phase = 0
			tr.stage(c)
		}
		stage()
		if n := len(tr.sendSizes); n != peers {
			t.Fatalf("%d size payloads for %d peers", n, peers)
		}
		if tr.sendSizes[0].Size != 16 || tr.sendVals[0].Size != 64*8+64*4 {
			t.Fatalf("stage sends %d size bytes and %d value bytes to target 0, want 16 and %d",
				tr.sendSizes[0].Size, tr.sendVals[0].Size, 64*8+64*4)
		}
		got = measureCost(stage)
	})
	if err := w.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	return got
}
