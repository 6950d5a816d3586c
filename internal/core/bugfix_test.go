package core

import (
	"strings"
	"testing"

	"repro/internal/mpi"
)

// expectPanicContains runs fn and fails unless it panics with a message
// containing want.
func expectPanicContains(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	fn()
}

func TestIndexOfMatchesRegisteredItems(t *testing.T) {
	st := NewStore()
	a := NewDenseVirtual("a", 100, 8, true)
	b := NewDenseVirtual("b", 100, 8, false)
	st.Register(a)
	st.Register(b)

	if i, ok := st.IndexOf(a); !ok || i != 0 {
		t.Fatalf("IndexOf(a) = %d, %v; want 0, true", i, ok)
	}
	if i, ok := st.IndexOf(b); !ok || i != 1 {
		t.Fatalf("IndexOf(b) = %d, %v; want 1, true", i, ok)
	}
	if _, ok := st.IndexOf(NewDenseVirtual("c", 100, 8, true)); ok {
		t.Fatal("IndexOf reported an unregistered item present")
	}
	// A foreign item that shares a registered name must not alias it.
	if _, ok := st.IndexOf(NewDenseVirtual("a", 100, 8, true)); ok {
		t.Fatal("IndexOf matched a foreign item by name alone")
	}
}

// indicesOf feeds the P2P tag pairing; before the fix an item absent from
// the store silently kept index 0, crossing its tag pair with item 0's.
func TestIndicesOfPanicsOnUnregisteredItem(t *testing.T) {
	st := NewStore()
	st.Register(NewDenseVirtual("a", 100, 8, true))
	foreign := NewDenseVirtual("ghost", 100, 8, true)
	expectPanicContains(t, `"ghost" is not registered`, func() {
		indicesOf(st, []Item{foreign})
	})
}

func TestIndicesOfReturnsStoreIndices(t *testing.T) {
	st := NewStore()
	st.Register(NewDenseVirtual("a", 100, 8, true))
	st.Register(NewDenseVirtual("x", 100, 8, false))
	st.Register(NewDenseVirtual("b", 100, 8, true))

	_, _, asyncIdx, finalIdx := itemPhases(Config{Spawn: Merge, Comm: P2P, Overlap: NonBlocking}, st)
	if len(asyncIdx) != 2 || asyncIdx[0] != 0 || asyncIdx[1] != 2 {
		t.Fatalf("constant item indices = %v, want [0 2]", asyncIdx)
	}
	if len(finalIdx) != 1 || finalIdx[0] != 1 {
		t.Fatalf("variable item indices = %v, want [1]", finalIdx)
	}
}

// colTargetView builds the receiving side of a 2-source -> 1-target
// Baseline pass without a live communicator; installValues only consults
// ns/nt/tgtRank and selfChunk, which an inter view never has.
func colTargetView() *view {
	return &view{inter: true, ns: 2, nt: 1, srcRank: -1, tgtRank: 0}
}

// Before the fix, each chunk was compared against the peer's announced
// total with <, so a peer announcing MORE bytes than the plan delivers
// passed silently. The check must demand exact per-(peer, item) totals.
func TestInstallValuesRejectsOverAnnouncedSizes(t *testing.T) {
	items := []Item{NewDenseVirtual("a", 100, 8, true)}
	tr := newCOLTransfer(colTargetView(), items)
	tr.prepareTargets()
	// Plan: target 0 receives [0,50) from source 0 and [50,100) from
	// source 1, 400 bytes each. Source 1 announces one byte too many.
	tr.sizes = []mpi.Payload{mpi.Int64s([]int64{400}), mpi.Int64s([]int64{401})}
	expectPanicContains(t, "announced 401 bytes", func() {
		tr.installValues([]mpi.Payload{mpi.Virtual(400), mpi.Virtual(400)})
	})
}

func TestInstallValuesRejectsUnderAnnouncedSizes(t *testing.T) {
	items := []Item{NewDenseVirtual("a", 100, 8, true)}
	tr := newCOLTransfer(colTargetView(), items)
	tr.prepareTargets()
	tr.sizes = []mpi.Payload{mpi.Int64s([]int64{400}), mpi.Int64s([]int64{392})}
	expectPanicContains(t, "announced 392 bytes", func() {
		tr.installValues([]mpi.Payload{mpi.Virtual(400), mpi.Virtual(400)})
	})
}

func TestInstallValuesAcceptsExactSizes(t *testing.T) {
	items := []Item{
		NewDenseVirtual("a", 100, 8, true),
		NewDenseVirtual("x", 100, 4, false),
	}
	tr := newCOLTransfer(colTargetView(), items)
	tr.prepareTargets()
	// Per peer: 400 bytes of "a" plus 200 bytes of "x".
	tr.sizes = []mpi.Payload{mpi.Int64s([]int64{400, 200}), mpi.Int64s([]int64{400, 200})}
	tr.installValues([]mpi.Payload{mpi.Virtual(600), mpi.Virtual(600)})
}
