package core

import (
	"fmt"

	"repro/internal/mpi"
)

// p2pTransfer is the state of one Algorithm 1 redistribution pass over a
// set of items. It supports both blocking completion (runBlockingAll) and
// incremental progress (progress), which is what Algorithm 3's
// Test_Redistribution does.
type p2pTransfer struct {
	v      *view
	items  []Item
	tagIdx []int // store-wide index per item, fixing the tag pair

	// Receiver state (Algorithm 1's second half). A receive is freed once
	// handled, and its slot becomes the null request.
	recvReqs []mpi.Request
	recvMeta []p2pRecvMeta
	numRcv   int // value messages still pending
	prepared map[int]bool

	// hooks is the recovery ladder's bookkeeping (nil outside resilient
	// passes): chunk retention/acknowledgement, RTT samples, progress ticks.
	hooks *ladderHooks

	// The source stages its sends, then issues them in waves whose value
	// bytes stay within the ceiling; with no ceiling the single wave is the
	// paper's one-shot Algorithm 1. A wave retires, and the cursor frees its
	// sends, once they have all completed. Resilient passes run the same schedule:
	// the ladder's ack ledger is keyed on the segmented spans, so both
	// sides agree on ledger entries without metadata exchange.
	footprint
	staged      []stagedSend
	waves       waveCursor // over staged
	lazyExtract bool       // pure source under a ceiling: extract at issue
	// scratch holds the size message being sent: Isend clones the payload
	// before returning, so the next send may overwrite it.
	scratch [8]byte

	started bool
}

// stagedSend is one deferred chunk segment: a size message announcing
// pl.Size, then the values message. Extraction normally happens at staging
// time, before Prepare may replace a Merge rank's block; on a pure source
// under a ceiling nothing replaces the block, so extraction is deferred to
// wave issue and the staged payload is a sized placeholder — the staging
// footprint itself stays within the ceiling, not just the wire traffic.
type stagedSend struct {
	dst             int
	sizeTag, valTag int
	pl              mpi.Payload
	item            int   // index into items, for deferred extraction
	lo, hi          int64 // element range, for deferred extraction
}

type p2pRecvMeta struct {
	item   int // index into items
	src    int
	lo, hi int64
	isSize bool
	vtag   int     // tag of the values message this size message announces
	posted float64 // post time, for the ladder's RTT samples
}

// setLadderHooks wires the transfer into a resilient pass. The pass's
// Prepare ledger replaces the local one so a later selective recovery round
// knows which items round 0 already Prepared.
func (t *p2pTransfer) setLadderHooks(h *ladderHooks) {
	t.hooks = h
	if h != nil && h.prepared != nil {
		t.prepared = h.prepared
	}
}

// newP2PTransfer plans an Algorithm 1 pass on view v; tagIdx gives each
// item's store-wide index so both sides derive the same tag pairs.
func newP2PTransfer(v *view, items []Item, tagIdx []int) *p2pTransfer {
	requireItems(items, "p2p")
	if len(tagIdx) != len(items) {
		panic("core: tagIdx/items length mismatch")
	}
	return &p2pTransfer{v: v, items: items, tagIdx: tagIdx, prepared: map[int]bool{}}
}

// tags returns the tag pair of the seq-th segment of item i on one
// (source, target) stream. Unbounded, every segment travels the item's shared
// pair (the paper's tags 77/88): matching is FIFO per (peer, tag), so the
// target's identically-ordered receives pair up without extra metadata.
// Under a ceiling each segment owns a per-sequence pair (waveTags), so a
// dropped segment cannot shift later segments of the chunk into the wrong
// posted receive.
func (t *p2pTransfer) tags(i, seq int) (sizeTag, valueTag int) {
	if t.ceiling > 0 {
		return waveTags(t.tagIdx[i], seq)
	}
	return itemTags(t.tagIdx[i])
}

// start stages the source sends, posts the target size receives, and
// issues the first wave; advanceWaves releases the rest as earlier waves
// complete.
func (t *p2pTransfer) start(c *mpi.Ctx) {
	if t.started {
		return
	}
	t.started = true
	copyRate := c.World().Options().CopyRate
	// A pure source's block is never replaced during the pass, so under a
	// ceiling its extractions can wait for their wave; a rank that is also
	// a target must still extract before Prepare.
	t.lazyExtract = t.ceiling > 0 && !t.v.isTarget()

	// Stage the source extractions first: a Merge rank that is both source
	// and target must read its old block before Prepare replaces it. The
	// extracted slices stay valid because Prepare allocates fresh storage.
	if t.v.isSource() {
		chunks, n := t.v.wireChunks(t.items, t.ceiling, t.v.sendChunks)
		t.staged = make([]stagedSend, 0, n)
		for i, it := range t.items {
			occ := map[int]int{}
			for _, ch := range chunks[i] {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					// memcpy path: Prepare preserves the local overlap; only
					// the copy cost is charged here. Delivered by construction,
					// so the ladder acks it at stage time.
					if copyRate > 0 {
						c.Compute(float64(it.WireBytes(ch.Lo, ch.Hi)) / copyRate)
					}
					t.hooks.ack(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: ch.Lo, hi: ch.Hi})
					continue
				}
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, t.ceiling) {
					sTag, vTag := t.tags(i, occ[ch.Dst])
					occ[ch.Dst]++
					var pl mpi.Payload
					if t.lazyExtract {
						pl = mpi.Virtual(it.WireBytes(sp.lo, sp.hi))
					} else {
						pl = it.Extract(sp.lo, sp.hi)
						t.hooks.retain(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: sp.lo, hi: sp.hi}, pl)
					}
					t.staged = append(t.staged, stagedSend{dst: ch.Dst, sizeTag: sTag, valTag: vTag,
						pl: pl, item: i, lo: sp.lo, hi: sp.hi})
				}
			}
		}
	}

	// Targets prepare their new blocks and post one size receive per
	// incoming chunk segment, before sends are issued so rendezvous values
	// can stream immediately. The segmentation is a pure function of (item,
	// range, ceiling), so it reproduces the source's boundaries exactly.
	// Each size receive later adds its values receive.
	if t.v.isTarget() {
		chunks, n := t.v.wireChunks(t.items, t.ceiling, t.v.recvChunks)
		t.recvReqs = make([]mpi.Request, 0, 2*n)
		t.recvMeta = make([]p2pRecvMeta, 0, 2*n)
		for i, it := range t.items {
			if !t.prepared[i] {
				lo, hi := targetRange(it, t.v.nt, t.v.tgtRank)
				it.Prepare(lo, hi)
				t.prepared[i] = true
			}
			occ := map[int]int{}
			for _, ch := range chunks[i] {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					continue // local copy handled on the send side
				}
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, t.ceiling) {
					sTag, vTag := t.tags(i, occ[ch.Src])
					occ[ch.Src]++
					t.recvReqs = append(t.recvReqs, t.v.recvFrom(c, ch.Src, sTag))
					t.recvMeta = append(t.recvMeta, p2pRecvMeta{item: i, src: ch.Src, lo: sp.lo, hi: sp.hi, isSize: true, vtag: vTag, posted: c.Now()})
					t.numRcv++
				}
			}
		}
	}

	// Wave cuts count value bytes and keep each segment's size and values
	// messages in one wave; a size message is 8 bytes of metadata riding
	// alongside its values.
	t.waves = newWaveCursor(len(t.staged), func(i int) int64 { return t.staged[i].pl.Size },
		t.ceiling, &t.gauge, true)
	t.advanceWaves(c)
}

// advanceWaves issues further send waves as earlier ones complete (a pair
// of MPI_Isend per chunk segment, Algorithm 1). It never blocks: under a
// ceiling the blocking loop's wait set includes the active wave, so a
// source parked on receives still observes its own send completions.
func (t *p2pTransfer) advanceWaves(c *mpi.Ctx) {
	for t.waves.next(c) {
		announceWave(c, t.waves.n)
		for j := t.waves.lo; j < t.waves.hi; j++ {
			s := &t.staged[j]
			t.send(c, s.dst, s.sizeTag, mpi.Bytes(mpi.AppendInt64s(t.scratch[:0], s.pl.Size)), 0)
			pl := s.pl
			key := chunkKey{item: s.item, src: t.v.srcRank, dst: s.dst, lo: s.lo, hi: s.hi}
			if t.lazyExtract {
				pl = t.items[s.item].Extract(s.lo, s.hi)
				// The deferred extraction doubles as the ladder's rung-0
				// reservoir, subject to the per-source retention budget.
				t.hooks.retain(key, pl)
			}
			t.hooks.markSent(key)
			s.pl = mpi.Payload{} // wave issued: drop the staging reference
			t.send(c, s.dst, s.valTag, pl, pl.Size)
		}
	}
}

// send issues one message of the active wave, live bytes of it counting
// against the ceiling until the wave retires.
func (t *p2pTransfer) send(c *mpi.Ctx, dst, tag int, pl mpi.Payload, live int64) {
	t.waves.issue(t.v.sendTo(c, dst, tag, pl), live)
}

// progress advances the receiver state machine without blocking and reports
// whether the whole pass (sends and receives) has completed.
func (t *p2pTransfer) progress(c *mpi.Ctx) bool {
	if !t.started {
		t.start(c)
	}
	t.advanceWaves(c)
	// Index loop, not range: handling a size message appends the matching
	// value receive, and that receive may already be complete (its envelope
	// arrived eagerly before the post — the completion broadcast fires while
	// this rank is running and is lost). It must be handled in this same
	// pass: if it is the last outstanding receive, no future event will wake
	// the rank again and it would sleep to its epoch deadline.
	for idx := 0; idx < len(t.recvReqs); idx++ {
		if rr := t.recvReqs[idx]; !rr.IsNull() && rr.Done() {
			t.handleRecv(c, idx)
		}
	}
	// Every retired wave's sends completed, so the active wave's are the
	// only ones that may still be pending.
	done := t.numRcv == 0 && t.waves.issuedAll() && c.Testall(t.waves.reqs)
	if done {
		t.waves.retire(c)
		t.reportPeak(c)
	}
	return done
}

// ready reports whether progress would act: the pass has not started, a
// posted receive has completed, or the active wave's sends have all
// completed and the wave has sends to retire, a next wave to open, or no
// receive left to wait for.
func (t *p2pTransfer) ready() bool {
	if !t.started {
		return true
	}
	for _, rr := range t.recvReqs {
		if !rr.IsNull() && rr.Done() {
			return true
		}
	}
	return t.waves.landed() && (len(t.waves.reqs) > 0 || !t.waves.issuedAll() || t.numRcv == 0)
}

// runBlockingAll drives the pass to completion, blocking per Algorithm 1: a
// Waitany-driven receive loop, then MPI_Waitall on the last wave's sends
// (every earlier wave's completed before it retired). Under a
// ceiling the wait set adds the active wave's sends, so a rank blocked on
// receives still releases its next wave the moment the current one
// completes — without that, two ranks could park on each other's
// still-unissued waves. Unbounded, the single wave is issued up front and
// the loop waits on the receives alone, as Algorithm 1 does.
func (t *p2pTransfer) runBlockingAll(c *mpi.Ctx) {
	t.start(c)
	var waitSet []mpi.Request
	for {
		t.advanceWaves(c)
		if t.numRcv == 0 && t.waves.issuedAll() {
			break
		}
		reqs := t.recvReqs
		if t.ceiling > 0 {
			waitSet = append(append(waitSet[:0], t.recvReqs...), t.waves.reqs...)
			reqs = waitSet
		}
		idx := c.Waitany(reqs)
		if idx < 0 {
			panic("core: p2p receive loop exhausted requests with messages pending")
		}
		if idx >= len(t.recvReqs) {
			continue // a wave send completed; loop back to advance the wave
		}
		t.handleRecv(c, idx)
	}
	c.Waitall(t.waves.reqs)
	t.waves.retire(c)
	t.reportPeak(c)
}

// drain completes the pass from wherever progress left off.
func (t *p2pTransfer) drain(c *mpi.Ctx) { t.runBlockingAll(c) }

// handleRecv processes the idx-th receive, complete and not yet handled,
// and frees it, nulling its slot: a size message posts the matching values
// receive, then frees itself; a values message frees itself, then
// installs the chunk.
func (t *p2pTransfer) handleRecv(c *mpi.Ctx, idx int) {
	meta := t.recvMeta[idx]
	pl := t.recvReqs[idx].Payload()
	it := t.items[meta.item]
	if meta.isSize {
		size := pl.Int64At(0)
		if want := it.WireBytes(meta.lo, meta.hi); size != want {
			panic(fmt.Sprintf("core: %q size message %d from source %d, plan says %d",
				it.Name(), size, meta.src, want))
		}
		t.hooks.tick()
		t.gauge.add(size) // incoming values are live from here to install
		t.recvReqs = append(t.recvReqs, t.v.recvFrom(c, meta.src, meta.vtag))
		t.recvMeta = append(t.recvMeta, p2pRecvMeta{item: meta.item, src: meta.src, lo: meta.lo, hi: meta.hi, posted: c.Now()})
		t.freeRecv(c, idx)
		return
	}
	t.freeRecv(c, idx)
	it.Install(meta.lo, meta.hi, pl)
	t.gauge.sub(pl.Size)
	t.numRcv--
	t.hooks.sample(c.Now() - meta.posted)
	t.hooks.ack(chunkKey{item: meta.item, src: meta.src, dst: t.v.tgtRank, lo: meta.lo, hi: meta.hi})
}

// freeRecv frees the idx-th receive, which handleRecv has read.
func (t *p2pTransfer) freeRecv(c *mpi.Ctx, idx int) {
	c.Free(t.recvReqs[idx])
	t.recvReqs[idx] = mpi.Request{}
}

// reap harvests value receives that completed after the epoch aborted, so
// their chunks are acked before the next recovery round plans resends. Size
// messages are skipped: handling one would post a fresh value receive into
// an epoch that is already over.
func (t *p2pTransfer) reap(c *mpi.Ctx) {
	for idx, rr := range t.recvReqs {
		if !rr.IsNull() && !t.recvMeta[idx].isSize && rr.Done() {
			t.handleRecv(c, idx)
		}
	}
}

// resendRecovery is the two-sided re-issue of a recovery round (P2P, COL,
// and the full rounds of every method, which re-issue nothing). A live
// source resends each span from its retained staging copy or, when its
// block is still pristine, a fresh extraction, under round-scoped tags;
// the target posts the matching receive during its walk and installs once
// the round's drive has succeeded.
type resendRecovery struct{ *recovery }

func newResendRecovery(r *recovery) resendRecovery {
	rp, v := r.rp, r.rp.v
	if r.full || !v.isSource() || r.failed[v.sourceGID(v.srcRank)] {
		return resendRecovery{r}
	}
	for i, it := range rp.items {
		occ := map[int]int{}
		for _, ch := range sendChunksFor(it, v.ns, v.nt, v.srcRank) {
			for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, rp.cfg.MemCeiling) {
				// Every span owns one tag slot on both sides, acked or not,
				// so a skip can never shift the pairing.
				seq := occ[ch.Dst]
				occ[ch.Dst]++
				key := chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: sp.lo, hi: sp.hi}
				if rp.hooks.acks.acked(key) || r.failed[v.targetGID(ch.Dst)] {
					continue // already delivered, or no survivor to receive it
				}
				pl, ok := rp.hooks.acks.retainedCopy(key)
				if !ok && r.pristine(v.srcRank) {
					pl, ok = it.Extract(sp.lo, sp.hi), true
				}
				if !ok {
					continue // copy gone: the target reads the checkpoint
				}
				rp.hooks.acks.noteResend(key, pl.Size)
				rp.hooks.acks.markSent(key)
				r.ops = append(r.ops, wireOp{key: key, n: pl.Size, tag: recoveryTag(r.round, rp.tagIdx[i], seq), pl: pl})
			}
		}
	}
	return resendRecovery{r}
}

func (n resendRecovery) reissue(c *mpi.Ctx, key chunkKey, seq int) bool {
	if n.failed[n.rp.v.sourceGID(key.src)] {
		return false
	}
	if _, ok := n.rp.hooks.acks.retainedCopy(key); !ok && !n.pristine(key.src) {
		return false
	}
	op := wireOp{key: key, req: n.rp.v.recvFrom(c, key.src, recoveryTag(n.round, n.rp.tagIdx[key.item], seq))}
	n.reqs = append(n.reqs, op.req)
	n.received = append(n.received, op)
	return true
}

func (n resendRecovery) issue(c *mpi.Ctx, op *wireOp) mpi.Request {
	return n.rp.v.sendTo(c, op.key.dst, op.tag, op.pl)
}

// land has nothing to do: a resent span lands in its target's receive,
// installed once the round commits.
func (resendRecovery) land(*mpi.Ctx, []wireOp) {}
