package core

import (
	"sort"

	"repro/internal/mpi"
)

// The graduated recovery ladder. Instead of one abort-everything rung, the
// resilient pass escalates only as far as the fault demands:
//
//	rung 0  selective retransmission: a timed-out epoch resends only the
//	        chunk spans no target acknowledged, from retained in-memory
//	        copies.
//	rung 1  adaptive deadlines: RTT-driven epoch extensions with bounded
//	        exponential backoff (per-rank, transient; see resilientDrive).
//	rung 2  partial re-plan over survivors: only spans whose source copy
//	        died reroute; everything acked stays put.
//	rung 3  checkpoint restore: the selective path itself is compromised,
//	        every chunk re-reads from the protect files.
//	rung 4  UnrecoverableError: data whose only copy is gone, or the round
//	        budget is exhausted.
//
// Rungs 0/2/3 are pass-global (agreed at the commit barrier); rung 1 is a
// per-rank deadline policy inside one epoch. Every transition is recorded
// as an EvFault event: Op "escalate" with Tag = rung for the pass-global
// rungs, Op "extend" with Tag = 1 for each rung-1 deadline extension.
const (
	rungRetransmit    = 0
	rungAdaptive      = 1
	rungReplan        = 2
	rungCheckpoint    = 3
	rungUnrecoverable = 4
)

// chunkKey names one planned span of a pass: the item's position in the
// pass item slice, the plan's (source rank, target rank) pair, and the
// element range [lo, hi) after memory-ceiling segmentation. Both sides
// derive the same deterministic segmentation from the shared
// segmentSpans/waveCuts functions, so the key needs no metadata exchange
// and no per-pair sequence number.
type chunkKey struct {
	item     int
	src, dst int
	lo, hi   int64
}

// chunkID names a key's (item, source, target) coordinate without the
// element range — the axis the acked-span intervals merge along.
type chunkID struct {
	item     int
	src, dst int
}

func (k chunkKey) id() chunkID { return chunkID{item: k.item, src: k.src, dst: k.dst} }

// chunkState is the shared in-flight state of one unacked span.
type chunkState struct {
	// sent is set when the span's payload entered the wire (a wave's Isend
	// or RMA Get, or a recovery resend). Recovery uses it to tell a genuine
	// retransmission from the first transmission of a never-issued wave.
	sent bool
	// retained is the source's staged extraction, kept so a later selective
	// round can resend without touching the (possibly re-Prepared) item.
	// Extracted slices stay valid because Prepare allocates fresh storage.
	retained    mpi.Payload
	hasRetained bool
}

// ackTracker is the pass-wide span acknowledgement ledger, shared by all
// ranks of one resilient pass through its epochState. Like the rest of the
// epoch coordination block it is only ever touched under the owning
// world's single-threaded kernel.
//
// The ledger is memory-bounded by construction: only unacked spans hold a
// chunkState, an ack reaps the entry immediately, and delivered spans
// collapse into sorted merged [lo, hi) intervals per (item, src, dst) —
// a fully delivered chunk costs one interval no matter how many ceiling
// segments it travelled as. Retained staging copies respect a per-source
// byte budget (the memory ceiling): beyond it the copy is dropped and a
// recovery round re-extracts or falls back to the protect checkpoint.
type ackTracker struct {
	chunks map[chunkKey]*chunkState
	done   map[chunkID][]span

	// retainBudget caps one source rank's live retained bytes (0:
	// unlimited); retained tracks the live bytes per source rank and
	// peakRetained their high-water mark across sources.
	retainBudget int64
	retained     map[int]int64
	peakRetained int64

	// resentBytes sums recovery-round payload bytes whose span had already
	// been transmitted once — the ladder's true retransmission volume,
	// excluding first sends of waves an aborted attempt never issued.
	resentBytes int64
}

func newAckTracker() *ackTracker {
	return &ackTracker{
		chunks:   map[chunkKey]*chunkState{},
		done:     map[chunkID][]span{},
		retained: map[int]int64{},
	}
}

// setRetainBudget installs the per-source retention ceiling (idempotent;
// the pass's Config.MemCeiling).
func (a *ackTracker) setRetainBudget(b int64) {
	if b > 0 {
		a.retainBudget = b
	}
}

func (a *ackTracker) state(k chunkKey) *chunkState {
	st := a.chunks[k]
	if st == nil {
		st = &chunkState{}
		a.chunks[k] = st
	}
	return st
}

// retain keeps the source's staged payload for possible retransmission,
// unless the span is already delivered or the source's retention budget is
// exhausted (drop-and-re-extract: recovery re-extracts a pristine block or
// reads the protect checkpoint instead).
func (a *ackTracker) retain(k chunkKey, pl mpi.Payload) {
	if a.acked(k) {
		return
	}
	st := a.state(k)
	if st.hasRetained {
		return
	}
	if a.retainBudget > 0 && a.retained[k.src]+pl.Size > a.retainBudget {
		return
	}
	st.retained = pl
	st.hasRetained = true
	a.retained[k.src] += pl.Size
	if a.retained[k.src] > a.peakRetained {
		a.peakRetained = a.retained[k.src]
	}
}

// markSent notes that the span's payload entered the wire.
func (a *ackTracker) markSent(k chunkKey) {
	if a.acked(k) {
		return
	}
	a.state(k).sent = true
}

// wasSent reports whether the span was ever transmitted (still-live spans
// only; acked spans are never resent, so the question does not arise).
func (a *ackTracker) wasSent(k chunkKey) bool {
	st := a.chunks[k]
	return st != nil && st.sent
}

// noteResend accounts one recovery-round transmission: only spans that
// already travelled once count toward the retransmission volume.
func (a *ackTracker) noteResend(k chunkKey, bytes int64) {
	if a.wasSent(k) {
		a.resentBytes += bytes
	}
}

// ack marks the span delivered: its live entry (and retained copy) is
// reaped immediately and the element range merges into the per-chunk
// delivered intervals. Idempotent.
func (a *ackTracker) ack(k chunkKey) {
	if st := a.chunks[k]; st != nil {
		if st.hasRetained {
			a.retained[k.src] -= st.retained.Size
		}
		delete(a.chunks, k)
	}
	a.mergeDone(k.id(), span{k.lo, k.hi})
}

// mergeDone inserts [s.lo, s.hi) into the chunk's sorted interval set,
// coalescing overlapping and adjacent ranges so contiguous delivery
// collapses to a single interval.
func (a *ackTracker) mergeDone(id chunkID, s span) {
	spans := a.done[id]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].hi >= s.lo })
	j := i
	for j < len(spans) && spans[j].lo <= s.hi {
		if spans[j].lo < s.lo {
			s.lo = spans[j].lo
		}
		if spans[j].hi > s.hi {
			s.hi = spans[j].hi
		}
		j++
	}
	out := append(spans[:i:i], s)
	out = append(out, spans[j:]...)
	a.done[id] = out
}

// acked reports whether the span's whole element range has been delivered
// (under any segmentation: containment is checked against the merged
// intervals, so a recovery round segmented differently still agrees).
func (a *ackTracker) acked(k chunkKey) bool {
	spans := a.done[k.id()]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].hi > k.lo })
	return i < len(spans) && spans[i].lo <= k.lo && k.hi <= spans[i].hi
}

// retainedCopy returns the source's staged payload, if one is held.
func (a *ackTracker) retainedCopy(k chunkKey) (mpi.Payload, bool) {
	st := a.chunks[k]
	if st == nil || !st.hasRetained {
		return mpi.Payload{}, false
	}
	return st.retained, true
}

// ladderHooks threads the ladder's bookkeeping into a transfer: the shared
// ack ledger, the rank-local Prepare ledger (so a selective round never
// re-Prepares — and thereby wipes — an item holding installed chunks), the
// RTT estimator, and the progress counter the adaptive deadline watches.
// All methods tolerate a nil receiver, which is the non-resilient path.
type ladderHooks struct {
	acks     *ackTracker
	prepared map[int]bool
	rtt      *RTTEstimator
	ticks    *int
}

// retain records a source-side staged chunk for retransmission.
func (h *ladderHooks) retain(k chunkKey, pl mpi.Payload) {
	if h == nil {
		return
	}
	h.acks.retain(k, pl)
}

// markSent records that a span's payload entered the wire.
func (h *ladderHooks) markSent(k chunkKey) {
	if h == nil {
		return
	}
	h.acks.markSent(k)
}

// ack marks a span installed and counts it as epoch progress.
func (h *ladderHooks) ack(k chunkKey) {
	if h == nil {
		return
	}
	h.acks.ack(k)
	*h.ticks++
}

// sample feeds one flow-completion time to the RTT estimator and counts it
// as epoch progress.
func (h *ladderHooks) sample(d float64) {
	if h == nil {
		return
	}
	h.rtt.Observe(d)
	*h.ticks++
}

// tick notes forward progress without an RTT sample (size messages, COL
// phase completions).
func (h *ladderHooks) tick() {
	if h == nil {
		return
	}
	*h.ticks++
}

// markPrepared notes that item i's target block has been Prepared.
func (h *ladderHooks) markPrepared(i int) {
	if h == nil {
		return
	}
	h.prepared[i] = true
}

// ackAware is implemented by transfers that participate in the ladder's
// chunk acknowledgement tracking; the resilient pass type-asserts it on
// the xfer it drives. Non-resilient passes never call it, so transfers
// behave identically with nil hooks.
type ackAware interface {
	setLadderHooks(h *ladderHooks)
}

// reaper is implemented by transfers that can harvest receives which
// completed after the epoch aborted, so an already-delivered chunk is not
// resent by the next recovery round.
type reaper interface {
	reap(c *mpi.Ctx)
}

// livePeaker is implemented by transfers that track a live-byte high-water
// mark; the resilient pass folds an aborted attempt's peak into the
// footprint it reports.
type livePeaker interface {
	livePeak() int64
}
