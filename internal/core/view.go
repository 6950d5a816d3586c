package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/partition"
)

// view describes one rank's role in a reconfiguration from NS sources to NT
// targets, and the communicator the redistribution runs over:
//
//   - Baseline: an inter-communicator; sources hold the parents' view,
//     targets the children's view.
//   - Merge: the joint intra-communicator covering sources ∪ targets, where
//     sources are ranks [0, NS) and targets are ranks [0, NT).
type view struct {
	comm  *mpi.Comm
	inter bool
	ns    int
	nt    int

	srcRank int // rank among sources, or -1
	tgtRank int // rank among targets, or -1
}

// newInterView builds the view of one side of a Baseline reconfiguration.
func newInterView(c *mpi.Ctx, interComm *mpi.Comm, ns, nt int, isSource bool) *view {
	v := &view{comm: interComm, inter: true, ns: ns, nt: nt, srcRank: -1, tgtRank: -1}
	if isSource {
		v.srcRank = interComm.Rank(c)
	} else {
		v.tgtRank = interComm.Rank(c)
	}
	return v
}

// newIntraView builds the Merge view on the joint intra-communicator.
func newIntraView(c *mpi.Ctx, joint *mpi.Comm, ns, nt int) *view {
	r := joint.Rank(c)
	v := &view{comm: joint, ns: ns, nt: nt, srcRank: -1, tgtRank: -1}
	if r < ns {
		v.srcRank = r
	}
	if r < nt {
		v.tgtRank = r
	}
	return v
}

func (v *view) isSource() bool { return v.srcRank >= 0 }
func (v *view) isTarget() bool { return v.tgtRank >= 0 }

// selfChunk reports whether a chunk src->dst is rank-local for this view
// (only possible under Merge, where a process can be source and target).
func (v *view) selfChunk(src, dst int) bool {
	return !v.inter && v.srcRank == src && v.tgtRank == dst && src == dst
}

// sendChunks returns the chunks this source rank sends for item it.
func (v *view) sendChunks(it Item) []partition.Chunk {
	return sendChunksFor(it, v.ns, v.nt, v.srcRank)
}

// recvChunks returns the chunks this target rank receives for item it.
func (v *view) recvChunks(it Item) []partition.Chunk {
	return recvChunksFor(it, v.ns, v.nt, v.tgtRank)
}

// sendTo posts a non-blocking send to target t.
func (v *view) sendTo(c *mpi.Ctx, t, tag int, pl mpi.Payload) mpi.Request {
	return c.Isend(v.comm, t, tag, pl)
}

// recvFrom posts a non-blocking receive from source s.
func (v *view) recvFrom(c *mpi.Ctx, s, tag int) mpi.Request {
	return c.Irecv(v.comm, s, tag)
}

// sourceGID returns the world-unique id of source rank s under this view:
// sources are the local group on their own inter-communicator view, the
// remote group on the targets' view, and ranks [0, ns) under Merge.
func (v *view) sourceGID(s int) int {
	if v.inter && !v.isSource() {
		return v.comm.RemoteMember(s).GID()
	}
	return v.comm.Member(s).GID()
}

// targetGID returns the world-unique id of target rank t under this view.
func (v *view) targetGID(t int) int {
	if v.inter && v.isSource() {
		return v.comm.RemoteMember(t).GID()
	}
	return v.comm.Member(t).GID()
}

// peers returns the peer count of collective exchanges on the view's
// communicator: the remote group size for Baseline, the joint size for
// Merge.
func (v *view) peers() int {
	if v.inter {
		return v.comm.RemoteSize()
	}
	return v.comm.Size()
}

// sourceBlock extracts this source rank's whole block of it under the
// ns-part distribution.
func (v *view) sourceBlock(it Item) mpi.Payload {
	d := distFor(it, v.ns)
	return it.Extract(d.Lo(v.srcRank), d.Hi(v.srcRank))
}

// targetRange returns the block [lo, hi) target t owns for item it under
// its nt-part distribution.
func targetRange(it Item, nt, t int) (int64, int64) {
	d := distFor(it, nt)
	return d.Lo(t), d.Hi(t)
}

// itemTags returns the size/value tag pair of the item at index i in the
// store. The paper's Algorithm 1 uses 77 and 88 for its single object; we
// keep those for item 0 and stride by 2, which preserves parity so size and
// value tags can never collide.
func itemTags(i int) (sizeTag, valueTag int) {
	return 77 + 2*i, 88 + 2*i
}

// Wave-scheduled P2P segments each travel a dedicated (size, value) tag
// pair instead of sharing the item's pair: matching is FIFO per (peer,
// tag), so on a shared tag a dropped segment would shift every later
// segment of the chunk into the wrong posted receive — silent misdelivery
// when segment sizes are uniform. Per-sequence tags confine a loss to its
// own segment, which is exactly the span the ack ledger reports unacked.
// The block sits above the item tags (77/88 family) and below the
// recovery block at 1<<18.
const (
	waveTagBase = 1 << 16
	waveSeqSpan = 1 << 10
)

// waveTags returns the tag pair of the seq-th segment (in ascending lo
// order, per (item, source, target) stream) of store item itemIdx under
// a memory ceiling. Both sides derive seq from the same deterministic
// chunk and segment enumeration, so no metadata is exchanged.
func waveTags(itemIdx, seq int) (sizeTag, valueTag int) {
	if seq >= waveSeqSpan {
		panic(fmt.Sprintf("core: wave segment sequence %d exceeds the tag stride", seq))
	}
	base := waveTagBase + (itemIdx*waveSeqSpan+seq)*2
	if base+1 >= recoveryTagBase {
		panic(fmt.Sprintf("core: item index %d exceeds the wave tag space", itemIdx))
	}
	return base, base + 1
}

// WaveValueTag returns the value-message wire tag of the seq-th segment
// (0-based) of store item i under the memory-ceiling wave schedule, for
// fault plans targeting a specific redistribution payload.
func WaveValueTag(i, seq int) int {
	_, v := waveTags(i, seq)
	return v
}

// requireMembers panics unless the store indexes match across phases.
func requireItems(items []Item, phase string) {
	if len(items) == 0 {
		return
	}
	seen := map[string]bool{}
	for _, it := range items {
		if seen[it.Name()] {
			panic(fmt.Sprintf("core: duplicate item %q in %s phase", it.Name(), phase))
		}
		seen[it.Name()] = true
	}
}
