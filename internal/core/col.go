package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/partition"
)

// colTransfer is the state of one Algorithm 2 redistribution pass:
// MPI_Alltoall exchanges per-peer sizes, targets create their structures,
// and MPI_Alltoallv moves the values. The blocking variant inherits the
// communicator-dependent algorithm from the MPI layer (pairwise exchange on
// inter-communicators); the non-blocking variant drives two Ialltoallv
// phases from progress calls.
type colTransfer struct {
	v     *view
	items []Item

	// staged per-peer outgoing chunks, extracted before Prepare.
	sendVals  []mpi.Payload // concatenated values per peer
	sendSizes []mpi.Payload // per-peer size vector (one int64 per item)

	phase    int // 0 = not started, 1 = sizes in flight, 2 = values in flight, 3 = done
	sizesReq mpi.Request
	valsReq  mpi.Request
	sizes    []mpi.Payload // received size vectors, indexed by peer, read with Int64At

	// hooks is the recovery ladder's bookkeeping (nil outside resilient
	// passes). The COL path acks chunks at install time and ticks on phase
	// completions, but records no RTT samples: a collective completion is not
	// a per-flow time.
	hooks *ladderHooks
}

// setLadderHooks wires the transfer into a resilient pass.
func (t *colTransfer) setLadderHooks(h *ladderHooks) { t.hooks = h }

// newCOLTransfer plans an Algorithm 2 pass for items on view v.
func newCOLTransfer(v *view, items []Item) *colTransfer {
	requireItems(items, "col")
	return &colTransfer{v: v, items: items}
}

// outChunk is one chunk stage sends: its destination peer, its item and
// its extracted payload.
type outChunk struct {
	dst, item int
	pl        mpi.Payload
}

// stage extracts the outgoing data and builds the per-peer payloads. Peers
// are the remote group for Baseline and the whole joint group for Merge;
// non-target peers simply get zero-size contributions.
func (t *colTransfer) stage(c *mpi.Ctx) {
	if t.phase != 0 {
		return
	}
	peers := t.v.peers()
	t.sendSizes = make([]mpi.Payload, peers)
	t.sendVals = make([]mpi.Payload, peers)
	copyRate := c.World().Options().CopyRate

	// The outgoing chunks go into one O(chunks) list, item-major, then by
	// range, and a stable sort by destination groups each peer's chunks in
	// that order. Size vectors are built only for the O(overlap) peers
	// this rank actually sends to; everyone else gets a zero-size payload,
	// which installValues reads as an all-zeros announcement. The Alltoallv
	// payload slices themselves stay O(peers) — that is the collective's
	// API — but the metadata bytes on the wire drop from NS×NT×items to
	// chunks×items.
	var out []outChunk
	if t.v.isSource() {
		for i, it := range t.items {
			for _, ch := range sendChunksFor(it, t.v.ns, t.v.nt, t.v.srcRank) {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					if copyRate > 0 {
						c.Compute(float64(it.WireBytes(ch.Lo, ch.Hi)) / copyRate)
					}
					t.hooks.ack(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: ch.Lo})
					continue
				}
				pl := it.Extract(ch.Lo, ch.Hi)
				t.hooks.retain(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: ch.Lo}, pl)
				out = append(out, outChunk{dst: ch.Dst, item: i, pl: pl})
			}
		}
	}
	if len(out) > 0 {
		slices.SortStableFunc(out, func(a, b outChunk) int { return cmp.Compare(a.dst, b.dst) })
		sizes := make([]int64, len(t.items))
		for lo := 0; lo < len(out); {
			dst, hi := out[lo].dst, lo
			clear(sizes)
			for ; hi < len(out) && out[hi].dst == dst; hi++ {
				sizes[out[hi].item] += out[hi].pl.Size
			}
			t.sendSizes[dst] = mpi.Int64s(sizes)
			t.sendVals[dst] = concatChunks(out[lo:hi])
			lo = hi
		}
	}
	t.phase = 1
}

// concatChunks merges one peer's chunks into one wire payload. When every
// piece is virtual the result stays virtual (the emulation path: only
// sizes travel). When real and virtual pieces mix — e.g. a virtual sparse
// matrix alongside real solver vectors — the virtual pieces materialize as
// zero bytes so the real data survives the single Alltoallv of Algorithm
// 2; their receivers ignore payload contents anyway.
func concatChunks(pieces []outChunk) mpi.Payload {
	var total int64
	anyReal := false
	for _, p := range pieces {
		total += p.pl.Size
		if !p.pl.IsVirtual() && p.pl.Size > 0 {
			anyReal = true
		}
	}
	if !anyReal || total == 0 {
		return mpi.Virtual(total)
	}
	data := make([]byte, 0, total)
	for _, p := range pieces {
		if p.pl.IsVirtual() {
			data = append(data, make([]byte, p.pl.Size)...)
		} else {
			data = append(data, p.pl.Data...)
		}
	}
	return mpi.Bytes(data)
}

// runBlockingAll performs Algorithm 2 with blocking collectives.
func (t *colTransfer) runBlockingAll(c *mpi.Ctx) {
	t.stage(c)
	recvSizes := c.Alltoallv(t.v.comm, t.sendSizes)
	t.decodeSizes(recvSizes)
	t.prepareTargets()
	recvVals := c.Alltoallv(t.v.comm, t.sendVals)
	t.installValues(recvVals)
	t.phase = 3
}

// progress drives the non-blocking variant: Ialltoallv for sizes, then
// Ialltoallv for values, testing completion on each call (Algorithm 3's
// Test_Redistribution for COL configurations). It reports completion.
func (t *colTransfer) progress(c *mpi.Ctx) bool {
	switch t.phase {
	case 0:
		t.stage(c)
		t.sizesReq = c.Ialltoallv(t.v.comm, t.sendSizes)
		return false
	case 1:
		if !c.Test(t.sizesReq) {
			return false
		}
		t.decodeSizes(t.sizesReq.Result())
		t.prepareTargets()
		t.hooks.tick()
		t.valsReq = c.Ialltoallv(t.v.comm, t.sendVals)
		t.phase = 2
		return false
	case 2:
		if !c.Test(t.valsReq) {
			return false
		}
		t.installValues(t.valsReq.Result())
		t.hooks.tick()
		t.phase = 3
		return true
	default:
		return true
	}
}

// ready reports whether progress would act: the pass has not started, its
// pending phase's Ialltoallv has completed, or it is done.
func (t *colTransfer) ready() bool {
	switch t.phase {
	case 1:
		return t.sizesReq.Done()
	case 2:
		return t.valsReq.Done()
	default:
		return true
	}
}

// drain finishes the non-blocking pass by waiting on whichever phase is
// pending (used when an asynchronous reconfiguration must be drained before
// the variable-data phase).
func (t *colTransfer) drain(c *mpi.Ctx) {
	for !t.progress(c) {
		switch t.phase {
		case 1:
			c.Wait(t.sizesReq)
		case 2:
			c.Wait(t.valsReq)
		}
	}
}

// decodeSizes checks the received size vectors and keeps them for
// installValues, which reads each announced size in place. A zero-size
// payload is the sparse announcement of a peer with no overlapping chunks:
// all zeros, with no vector materialized.
func (t *colTransfer) decodeSizes(recv []mpi.Payload) {
	for p, pl := range recv {
		if pl.Size == 0 {
			continue
		}
		if pl.IsVirtual() || pl.Size%8 != 0 || pl.Size/8 != int64(len(t.items)) {
			panic(fmt.Sprintf("core: size vector from peer %d has %d bytes, want %d entries",
				p, pl.Size, len(t.items)))
		}
	}
	t.sizes = recv
}

func (t *colTransfer) prepareTargets() {
	if !t.v.isTarget() {
		return
	}
	for i, it := range t.items {
		lo, hi := targetRange(it, t.v.nt, t.v.tgtRank)
		it.Prepare(lo, hi)
		t.hooks.markPrepared(i)
	}
}

// installValues unpacks the concatenated per-peer payloads into the items,
// using the plan for chunk boundaries and the size vectors as a
// consistency check.
func (t *colTransfer) installValues(recv []mpi.Payload) {
	if !t.v.isTarget() {
		return
	}
	// Enumerate this rank's incoming chunks once — item-major, then by
	// range, exactly the order each source staged its concatenated payload —
	// and stable-sort by source so a single cursor walks them peer by peer.
	// The old shape rescanned every item's full chunk list for every peer:
	// O(peers × items × chunks).
	type rc struct {
		item int
		ch   partition.Chunk
	}
	var chunks []rc
	for i, it := range t.items {
		for _, ch := range recvChunksFor(it, t.v.ns, t.v.nt, t.v.tgtRank) {
			if t.v.selfChunk(ch.Src, ch.Dst) {
				continue
			}
			chunks = append(chunks, rc{item: i, ch: ch})
		}
	}
	slices.SortStableFunc(chunks, func(a, b rc) int { return cmp.Compare(a.ch.Src, b.ch.Src) })

	want := make([]int64, len(t.items))
	cur := 0
	for p, pl := range recv {
		start := cur
		for cur < len(chunks) && chunks[cur].ch.Src == p {
			cur++
		}
		mine := chunks[start:cur]
		// A peer's size vector announces its total bytes per item; the plan
		// may split that total over several chunks, so the check must
		// accumulate per (peer, item) and demand exact totals. Comparing each
		// chunk against the announced total would let an over-announcing peer
		// slip through. Verify before touching any item. A zero-size vector
		// is the sparse all-zeros announcement.
		clear(want)
		for _, m := range mine {
			want[m.item] += t.items[m.item].WireBytes(m.ch.Lo, m.ch.Hi)
		}
		if t.sizes != nil {
			for i, it := range t.items {
				var got int64
				if t.sizes[p].Size != 0 {
					got = t.sizes[p].Int64At(i)
				}
				if got != want[i] {
					panic(fmt.Sprintf("core: peer %d announced %d bytes for %q, plan needs %d",
						p, got, it.Name(), want[i]))
				}
			}
		}
		var off int64
		for _, m := range mine {
			it := t.items[m.item]
			n := it.WireBytes(m.ch.Lo, m.ch.Hi)
			it.Install(m.ch.Lo, m.ch.Hi, pl.Slice(off, off+n))
			off += n
			t.hooks.ack(chunkKey{item: m.item, src: m.ch.Src, dst: m.ch.Dst, lo: m.ch.Lo})
		}
		if off != pl.Size {
			panic(fmt.Sprintf("core: decoded %d of %d bytes from peer %d", off, pl.Size, p))
		}
	}
}
