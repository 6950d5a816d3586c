package core

import (
	"repro/internal/mpi"
)

// rmaTransfer implements the paper's future-work redistribution method
// (§5): one-sided RMA. Sources expose their blocks in windows; targets pull
// exactly the chunks the plan assigns them with MPI_Get, with no source
// CPU in the transfer path. No size messages are needed: both sides derive
// chunk wire offsets from the plan (and, for sparse items, the globally
// known row pointer).
//
// Window exposure snapshots the data (clone at WinCreate), so sources may
// proceed once the access epoch is over; the blocking variant still closes
// with a fence, matching MPI_Win_fence semantics.
type rmaTransfer struct {
	v     *view
	items []Item

	wins []*mpi.Win // one window per item (index parallel to items)
	gets []rmaGet   // the target's staged pulls, issued wave by wave

	phase int // 0 = not started, 1 = pulling, 2 = done

	// hooks is the recovery ladder's bookkeeping (nil outside resilient
	// passes). With hooks attached, completed Gets install as they land so
	// an aborted epoch's delivered chunks are already acked when the next
	// recovery round plans its re-pulls; without hooks a wave installs when
	// all of its Gets have landed.
	hooks    *ladderHooks
	prepared map[int]bool

	// The target issues its Gets in waves whose payload bytes stay within
	// the ceiling, installing each wave before pulling the next; with no
	// ceiling the single wave is the one-shot pull. See waves.go.
	footprint
	waves waveCursor
}

// rmaGet is one staged, possibly segmented Get: the element range [lo, hi)
// of item from source rank src, at wire offset off and n bytes into the
// source's exposed block. Its request is in the wave cursor while its wave
// is active (req), and freed when the wave retires, after every Get of the
// wave has installed.
type rmaGet struct {
	item    int
	src     int
	off, n  int64
	lo, hi  int64
	posted  float64 // issue time, for the ladder's RTT samples
	handled bool    // installed and acked
}

// key names the Get's span in the ladder's ack ledger; dst is the pulling
// target's rank.
func (g *rmaGet) key(dst int) chunkKey {
	return chunkKey{item: g.item, src: g.src, dst: dst, lo: g.lo, hi: g.hi}
}

func newRMATransfer(v *view, items []Item) *rmaTransfer {
	requireItems(items, "rma")
	return &rmaTransfer{v: v, items: items, prepared: map[int]bool{}}
}

// setLadderHooks wires the transfer into a resilient pass. The pass's
// Prepare ledger replaces the local one so a later selective recovery round
// knows which items round 0 already Prepared.
func (t *rmaTransfer) setLadderHooks(h *ladderHooks) {
	t.hooks = h
	if h != nil && h.prepared != nil {
		t.prepared = h.prepared
	}
}

// setup exposes source blocks and issues the target's first wave of Gets.
func (t *rmaTransfer) setup(c *mpi.Ctx) {
	if t.phase != 0 {
		return
	}
	copyRate := c.World().Options().CopyRate

	// Extract exposures before Prepare replaces blocks (Merge ranks are
	// both sides).
	exposures := make([]mpi.Payload, len(t.items))
	if t.v.isSource() {
		for i, it := range t.items {
			exposures[i] = t.v.sourceBlock(it)
			// Account the local share of a Merge rank now, as P2P/COL do.
			// Delivered by construction, so the ladder acks it at setup time.
			for _, ch := range sendChunksFor(it, t.v.ns, t.v.nt, t.v.srcRank) {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					if copyRate > 0 {
						c.Compute(float64(it.WireBytes(ch.Lo, ch.Hi)) / copyRate)
					}
					t.hooks.ack(chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: ch.Lo, hi: ch.Hi})
				}
			}
		}
	}

	// Collective window creation per item (everyone participates; pure
	// targets expose nothing).
	t.wins = make([]*mpi.Win, len(t.items))
	for i := range t.items {
		t.wins[i] = c.WinCreate(t.v.comm, exposures[i])
	}

	// Targets prepare new blocks and stage their pulls, segmented within
	// the ceiling; only the first wave is issued here. Each wave installs
	// before the next is pulled, so the target's live Get payloads stay
	// within the ceiling.
	if t.v.isTarget() {
		chunks, n := t.v.wireChunks(t.items, t.ceiling, t.v.recvChunks)
		t.gets = make([]rmaGet, 0, n)
		for i, it := range t.items {
			if !t.prepared[i] {
				lo, hi := targetRange(it, t.v.nt, t.v.tgtRank)
				it.Prepare(lo, hi)
				t.prepared[i] = true
			}
			srcDist := distFor(it, t.v.ns)
			for _, ch := range chunks[i] {
				if t.v.selfChunk(ch.Src, ch.Dst) {
					continue
				}
				sLo := srcDist.Lo(ch.Src)
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, t.ceiling) {
					t.gets = append(t.gets, rmaGet{
						item: i, src: ch.Src, off: it.WireBytes(sLo, sp.lo), n: it.WireBytes(sp.lo, sp.hi),
						lo: sp.lo, hi: sp.hi,
					})
				}
			}
		}
		t.waves = newWaveCursor(len(t.gets), func(i int) int64 { return t.gets[i].n }, t.ceiling, &t.gauge, true)
		t.nextWave(c)
	}
	t.phase = 1
}

// nextWave retires the landed active wave and pulls the next one,
// reporting whether one was issued.
func (t *rmaTransfer) nextWave(c *mpi.Ctx) bool {
	if !t.waves.next(c) {
		return false
	}
	announceWave(c, t.waves.n)
	for i := t.waves.lo; i < t.waves.hi; i++ {
		g := &t.gets[i]
		t.hooks.markSent(g.key(t.v.tgtRank))
		req := c.Get(t.wins[g.item], g.src, g.off, g.off+g.n)
		g.posted = c.Now()
		t.waves.issue(req, g.n)
	}
	return true
}

// req returns the request of the i-th Get, which is in the active wave.
func (t *rmaTransfer) req(i int) mpi.Request { return t.waves.reqs[i-t.waves.lo] }

// installWave installs every Get of the landed active wave and pulls the
// next one, reporting whether one was issued.
func (t *rmaTransfer) installWave(c *mpi.Ctx) bool {
	for i := t.waves.lo; i < t.waves.hi; i++ {
		t.installOne(c, i)
	}
	return t.nextWave(c)
}

// installOne stores one fetched chunk, releases its live bytes, feeds the
// ladder an RTT sample, and acks it.
func (t *rmaTransfer) installOne(c *mpi.Ctx, i int) {
	g := &t.gets[i]
	if g.handled {
		return
	}
	g.handled = true
	pl := t.req(i).Payload()
	t.items[g.item].Install(g.lo, g.hi, pl)
	if copyRate := c.World().Options().CopyRate; copyRate > 0 {
		c.Compute(float64(pl.Size) / copyRate)
	}
	t.waves.release(g.n)
	t.hooks.sample(c.Now() - g.posted)
	t.hooks.ack(g.key(t.v.tgtRank))
}

// finish marks the pass done and publishes its footprint.
func (t *rmaTransfer) finish(c *mpi.Ctx) {
	t.phase = 2
	t.reportPeak(c)
}

// progress advances without blocking (beyond the one-time collective
// window creation) and reports completion. Sources are passive: their data
// is snapshotted in the window, so their side completes at setup. The
// ladder hooks decide only when a landed Get installs: under a resilient
// pass as it lands, otherwise when its whole wave has landed.
func (t *rmaTransfer) progress(c *mpi.Ctx) bool {
	if t.phase == 0 {
		t.setup(c)
	}
	if t.phase == 2 {
		return true
	}
	if !t.v.isTarget() {
		t.phase = 2
		return true
	}
	for {
		landed := true
		for i := t.waves.lo; i < t.waves.hi; i++ {
			switch {
			case !t.req(i).Done():
				landed = false
			case t.hooks != nil:
				t.installOne(c, i)
			}
		}
		if !landed {
			return false
		}
		if !t.installWave(c) {
			t.finish(c)
			return true
		}
	}
}

// ready reports whether progress would act: the pass has not started or
// has no pulls left to wait for, a landed Get of the active wave waits to
// install, or the whole wave has landed.
func (t *rmaTransfer) ready() bool {
	if t.phase != 1 || !t.v.isTarget() {
		return true
	}
	landed := true
	for i := t.waves.lo; i < t.waves.hi; i++ {
		switch {
		case !t.req(i).Done():
			landed = false
		case t.hooks != nil && !t.gets[i].handled:
			return true
		}
	}
	return landed
}

// pull blocks until every remaining wave has landed and installed.
func (t *rmaTransfer) pull(c *mpi.Ctx) {
	for {
		c.Waitall(t.waves.reqs)
		if !t.installWave(c) {
			break
		}
	}
	t.finish(c)
}

// reap harvests Gets that completed after the epoch aborted, installing
// and acking their chunks so the next recovery round does not re-pull
// already-landed data. Only the active wave can hold such Gets: a wave
// retires once every Get of it has installed.
func (t *rmaTransfer) reap(c *mpi.Ctx) {
	for i := t.waves.lo; i < t.waves.hi; i++ {
		if t.req(i).Done() {
			t.installOne(c, i)
		}
	}
}

// runBlockingAll performs the fenced epoch: expose, pull, fence.
func (t *rmaTransfer) runBlockingAll(c *mpi.Ctx) {
	t.setup(c)
	if t.v.isTarget() {
		t.pull(c)
	}
	// Closing fence: sources leave only after every pull completed.
	if len(t.wins) > 0 {
		c.Fence(t.wins[len(t.wins)-1])
	}
	t.phase = 2
}

// drain completes the non-blocking variant from wherever progress left it.
func (t *rmaTransfer) drain(c *mpi.Ctx) {
	if t.phase == 0 {
		t.setup(c)
	}
	if t.v.isTarget() && t.phase != 2 {
		t.pull(c)
	}
	t.phase = 2
}

// pullRecovery is the one-sided re-issue of a selective recovery round
// (RMA, rungs 0 and 2): the target re-pulls with Gets, and no source CPU
// takes part, the defining RMA property.
//
// Rung 0 (nobody newly dead): the attempt's windows still hold every
// source's snapshot — exposure clones at WinCreate — so the target simply
// re-issues the lost Gets against them, even from a Merge source whose
// block Prepare has since replaced.
//
// Rung 2 (a participant died): the dead rank can never join another
// exposure epoch, so every survivor collectively creates fresh windows —
// sources whose in-memory block is still pristine re-expose it, everyone
// else exposes nothing — and spans of the other sources come from the
// checkpoint.
//
// A Get installs as soon as its wave lands, charging the copy and feeding
// the rung-1 RTT estimator, which drives the next epoch's adaptive
// deadline. A Merge rank's self-chunk never left its block, so it is acked
// without reading the checkpoint.
type pullRecovery struct {
	*recovery
	wins   []*mpi.Win
	replan bool
}

func newPullRecovery(c *mpi.Ctx, r *recovery) pullRecovery {
	v := r.rp.v
	n := pullRecovery{recovery: r, replan: r.rp.st.rung >= rungReplan}
	if !n.replan {
		n.wins = r.rp.x.(*rmaTransfer).wins
		return n
	}
	n.wins = make([]*mpi.Win, len(r.rp.items))
	for i, it := range r.rp.items {
		var exp mpi.Payload
		if v.isSource() && r.pristine(v.srcRank) {
			exp = v.sourceBlock(it)
		}
		n.wins[i] = c.WinCreate(v.comm, exp)
	}
	return n
}

func (n pullRecovery) reissue(c *mpi.Ctx, key chunkKey, seq int) bool {
	acks := n.rp.hooks.acks
	switch {
	case n.rp.v.selfChunk(key.src, key.dst):
		acks.ack(key) // kept in place by Prepare
	case n.replan && !n.pristine(key.src):
		return false
	default:
		it := n.rp.items[key.item]
		op := wireOp{key: key, n: it.WireBytes(key.lo, key.hi),
			off: it.WireBytes(distFor(it, n.rp.v.ns).Lo(key.src), key.lo)}
		acks.noteResend(key, op.n)
		acks.markSent(key)
		n.ops = append(n.ops, op)
	}
	return true
}

func (n pullRecovery) issue(c *mpi.Ctx, op *wireOp) mpi.Request {
	op.posted = c.Now()
	op.req = c.Get(n.wins[op.key.item], op.key.src, op.off, op.off+op.n)
	return op.req
}

func (n pullRecovery) land(c *mpi.Ctx, ops []wireOp) {
	copyRate := c.World().Options().CopyRate
	for i := range ops {
		n.rp.installSpan(&ops[i])
		if copyRate > 0 {
			c.Compute(float64(ops[i].n) / copyRate)
		}
		n.rp.hooks.rtt.Observe(c.Now() - ops[i].posted)
		n.rp.hooks.acks.ack(ops[i].key)
	}
}
