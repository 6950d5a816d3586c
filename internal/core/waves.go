package core

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/partition"
)

// This file is the memory-ceiling wave scheduler. The P2P and RMA passes
// stage every transfer of a redistribution, then release it in consecutive
// waves whose in-flight payload bytes stay within Config.MemCeiling, so
// extreme-scale worlds complete with a bounded transfer footprint. A zero
// ceiling is one wave holding everything: the paper's one-shot schedule is
// the single-wave case of the same code. Chunks larger than the ceiling
// are segmented into element ranges; segmentation is a pure function of
// (item, range, ceiling), so sources and targets derive identical
// boundaries without exchanging metadata. COL ignores the ceiling
// (Algorithm 2's single Alltoallv owns its buffers). Resilient passes run
// the same schedule: the recovery ladder's ack ledger is keyed on the
// segmented spans themselves (see ladder.go), so selective retransmission
// scopes to the spans of incomplete waves, and recovery rounds pace their
// resends and re-pulls with the same waveCursor.

// span is one contiguous element range of a segmented chunk.
type span struct {
	lo, hi int64
}

// segmentSpans splits [lo, hi) into consecutive element ranges whose wire
// size each stays within ceiling, using binary search over the item's
// monotone WireBytes. A single element wider than the ceiling gets a span
// of its own, so the walk always makes progress. A ceiling of zero (or a
// range already within it) yields the range unsplit.
func segmentSpans(it Item, lo, hi int64, ceiling int64) []span {
	if ceiling <= 0 || it.WireBytes(lo, hi) <= ceiling {
		return []span{{lo, hi}}
	}
	var out []span
	for cur := lo; cur < hi; {
		end := segmentEnd(it, cur, hi, ceiling)
		out = append(out, span{cur, end})
		cur = end
	}
	return out
}

// segmentCount is len(segmentSpans(it, lo, hi, ceiling)), without building
// the spans: a pass counts its segments first to size its staging lists
// once.
func segmentCount(it Item, lo, hi int64, ceiling int64) int {
	if ceiling <= 0 || it.WireBytes(lo, hi) <= ceiling {
		return 1
	}
	n := 0
	for cur := lo; cur < hi; n++ {
		cur = segmentEnd(it, cur, hi, ceiling)
	}
	return n
}

// segmentEnd returns the end of the span that starts at cur: the largest
// element count n with WireBytes(cur, cur+n) within the ceiling, clamped
// to at least one element.
func segmentEnd(it Item, cur, hi int64, ceiling int64) int64 {
	n := int64(sort.Search(int(hi-cur), func(i int) bool {
		return it.WireBytes(cur, cur+int64(i)+1) > ceiling
	}))
	return cur + max(n, 1)
}

// wireChunks returns each item's chunks on one side of a pass
// (v.sendChunks or v.recvChunks) and how many segments under ceiling those
// that cross the wire make, so the pass sizes its staging lists once.
func (v *view) wireChunks(items []Item, ceiling int64, chunksFor func(Item) []partition.Chunk) ([][]partition.Chunk, int) {
	chunks := make([][]partition.Chunk, len(items))
	n := 0
	for i, it := range items {
		chunks[i] = chunksFor(it)
		for _, ch := range chunks[i] {
			if !v.selfChunk(ch.Src, ch.Dst) {
				n += segmentCount(it, ch.Lo, ch.Hi, ceiling)
			}
		}
	}
	return chunks, n
}

// waveCuts partitions consecutive payload sizes into waves whose sums stay
// within ceiling, returning each wave's exclusive end index. An entry
// larger than the ceiling forms a wave of its own (segmentation already
// bounded everything it could). A ceiling of zero (or below) is unbounded:
// every entry rides one wave. With no entries there are no waves.
func waveCuts(sizes []int64, ceiling int64) []int {
	if len(sizes) == 0 {
		return nil
	}
	if ceiling <= 0 {
		return []int{len(sizes)}
	}
	var cuts []int
	start, sum := 0, int64(0)
	for i, n := range sizes {
		if i > start && sum+n > ceiling {
			cuts = append(cuts, i)
			start, sum = i, 0
		}
		sum += n
	}
	return append(cuts, len(sizes))
}

// PlanWaveSchedule derives, without running a simulation, the wave
// schedule a source with the given outgoing chunks follows under the
// ceiling: the segment count after ceiling segmentation, the number of
// waves, and the peak summed wire bytes of any single wave. It runs the
// exact segmentation and grouping the P2P and RMA transfers use, so
// extreme-scale planner benchmarks measure the real schedule. As in the
// transfers, every wave stays within the ceiling unless a single element
// already exceeds it.
func PlanWaveSchedule(it Item, chunks []partition.Chunk, ceiling int64) (segments, waves int, peakWaveBytes int64) {
	var sizes []int64
	for _, ch := range chunks {
		for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, ceiling) {
			sizes = append(sizes, it.WireBytes(sp.lo, sp.hi))
		}
	}
	cuts := waveCuts(sizes, ceiling)
	prev := 0
	for _, end := range cuts {
		var sum int64
		for _, n := range sizes[prev:end] {
			sum += n
		}
		if sum > peakWaveBytes {
			peakWaveBytes = sum
		}
		prev = end
	}
	return len(sizes), len(cuts), peakWaveBytes
}

// liveGauge tracks a transfer's live payload bytes and their high-water
// mark: wave issues and value-receive posts add, completions and installs
// subtract.
type liveGauge struct {
	live, peak int64
}

func (g *liveGauge) add(n int64) {
	g.live += n
	if g.live > g.peak {
		g.peak = g.live
	}
}

func (g *liveGauge) sub(n int64) { g.live -= n }

// waveCursor paces a staged entry list through its waves. The P2P and RMA
// attempts and the recovery round stage their transfers, then release one
// wave at a time: next retires the active wave once its requests have all
// completed and opens the following one, whose entries [lo, hi) the caller
// issues through issue. Issued payload bytes stay live on the gauge until
// they are released (an RMA attempt's install) or their wave retires. An
// owning cursor frees the active wave's requests as the wave retires, so
// its caller reads a request only while its wave is active.
type waveCursor struct {
	cuts   []int         // exclusive end index of each wave (waveCuts)
	n      int           // waves opened so far; the active wave is number n
	lo, hi int           // staged entries of the active wave
	reqs   []mpi.Request // requests of the active wave
	bytes  int64         // live payload bytes of the active wave
	gauge  *liveGauge
	owns   bool // free reqs as their wave retires
}

// newWaveCursor plans the waves of n staged entries, entry i carrying
// size(i) payload bytes, under ceiling; issued bytes meter on g. With owns
// the cursor frees each wave's requests as the wave retires.
func newWaveCursor(n int, size func(i int) int64, ceiling int64, g *liveGauge, owns bool) waveCursor {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = size(i)
	}
	return waveCursor{cuts: waveCuts(sizes, ceiling), gauge: g, owns: owns}
}

// issuedAll reports whether every wave has been opened.
func (w *waveCursor) issuedAll() bool { return w.n >= len(w.cuts) }

// next retires the active wave when every one of its requests completed and
// opens the following wave, reporting whether it did. A drained cursor
// still retires its last wave.
func (w *waveCursor) next(c *mpi.Ctx) bool {
	if !c.Testall(w.reqs) {
		return false
	}
	w.retire(c)
	if w.issuedAll() {
		return false
	}
	w.hi = w.cuts[w.n]
	w.n++
	return true
}

// landed reports whether every request of the active wave has completed,
// as next's test does; a drive's readiness calls it, where no context
// runs.
func (w *waveCursor) landed() bool {
	for _, r := range w.reqs {
		if !r.Done() {
			return false
		}
	}
	return true
}

// retire releases the active wave's remaining live bytes, and an owning
// cursor its complete requests, and closes it.
func (w *waveCursor) retire(c *mpi.Ctx) {
	w.gauge.sub(w.bytes)
	w.bytes = 0
	if w.owns {
		for _, r := range w.reqs {
			c.Free(r)
		}
	}
	w.reqs = w.reqs[:0]
	w.lo = w.hi
}

// issue records one request of the active wave carrying n live bytes.
func (w *waveCursor) issue(req mpi.Request, n int64) {
	w.reqs = append(w.reqs, req)
	w.bytes += n
	w.gauge.add(n)
}

// release drops n live bytes of the active wave before it retires: an
// installed RMA Get no longer holds its payload.
func (w *waveCursor) release(n int64) {
	w.bytes -= n
	w.gauge.sub(n)
}

// footprint is a transfer's live-payload accounting. The gauge tracks on
// every schedule, but only a bounded pass publishes it: the footprint
// gauges report against a ceiling, and an unbounded pass has none.
type footprint struct {
	ceiling  int64 // Config.MemCeiling; zero runs one unbounded wave
	gauge    liveGauge
	reported bool
}

// livePeak exposes the high-water footprint for the resilient pass's
// end-of-pass report (an aborted attempt never reaches reportPeak).
func (f *footprint) livePeak() int64 {
	if f.ceiling <= 0 {
		return 0
	}
	return f.gauge.peak
}

// reportPeak publishes the pass's high-water footprint once, when it
// completes.
func (f *footprint) reportPeak(c *mpi.Ctx) {
	if f.reported {
		return
	}
	f.reported = true
	reportPeakLive(c, f.livePeak())
}

// PeakLiveBytesGauge is the obs gauge name transfers report their
// per-rank high-water payload footprint under. The sink keeps the
// maximum across ranks, so reporting order cannot change the result.
const PeakLiveBytesGauge = "redist/peak_live_bytes"

// PeakRetainedBytesGauge reports a resilient pass's high-water mark of
// any single source's retained staging copies (the ladder's rung-0
// retransmission reservoir, bounded by the memory ceiling).
const PeakRetainedBytesGauge = "redist/peak_retained_bytes"

// RetransmittedBytesGauge reports a resilient pass's total recovery-round
// payload bytes whose span had already been transmitted once — the true
// retransmission volume of rung-0 selective resends.
const RetransmittedBytesGauge = "redist/retransmitted_bytes"

// gaugeSink is the slice of obs.Stream the transfers report through; the
// assertion keeps core decoupled from the obs package. Sinks without
// gauges (trace recorders, tees) are silently skipped.
type gaugeSink interface {
	SetGauge(name string, v float64)
}

// reportGauge publishes one positive gauge value when the world's sink
// can hold gauges; zero and negative values are skipped so absent
// measurements never shadow a real one under the sink's max-merge.
func reportGauge(c *mpi.Ctx, name string, v int64) {
	if v <= 0 {
		return
	}
	if gs, ok := c.World().Sink().(gaugeSink); ok {
		gs.SetGauge(name, float64(v))
	}
}

// reportPeakLive publishes a completed pass's high-water footprint when
// the world's sink can hold gauges.
func reportPeakLive(c *mpi.Ctx, peak int64) {
	reportGauge(c, PeakLiveBytesGauge, peak)
}

// announceWave tells the world's fault hooks (when armed and
// wave-observing) that this rank is issuing wave index w (1-based), so
// fault plans can address crash and drop windows by wave instead of by
// wall-clock time. An unbounded pass is one wave, so it announces wave 1.
// A no-op without armed hooks.
func announceWave(c *mpi.Ctx, w int) {
	c.World().AnnounceWave(c.Proc().GID(), w)
}
