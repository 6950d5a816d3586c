package core

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// This file implements the fault-tolerant redistribution protocol:
// detect → abort → re-plan → resume.
//
// A resilient pass wraps one redistribution epoch in three safeguards:
//
//  1. Protect. Before any data moves, every source persists its blocks to
//     the shared filesystem (the same namespace the CR method uses) and
//     marks the checkpoint complete. A soft barrier separates the writes
//     from any read, so a partially written block is never trusted.
//  2. Attempt with detection. The normal transfer (P2P, COL, or RMA) is driven
//     non-blockingly under a deadline. When the failure detector reports a
//     participant that was alive when the round was planned, or the epoch
//     times out repeatedly, the rank aborts the round.
//  3. Re-plan and resume. Aborting ranks raise a shared abort flag; the
//     round's commit barrier makes the decision collective. The next round
//     re-transfers every chunk: sources whose copy is still pristine resend
//     it directly, chunks whose source copy was lost (a dead rank, or a
//     Merge rank whose Prepare already overwrote its block) are restored
//     from the protect checkpoint. Data whose only copy is gone raises
//     UnrecoverableError.
//
// Every decision is recorded as a trace.EvFault event and recovery work is
// tagged with trace.PhaseRecovery, so the analyzer attributes its cost to a
// dedicated critical-path bucket.

// FailureDetector is the recovery protocol's oracle for process liveness.
// The fault package provides the standard implementation; core depends only
// on this interface.
type FailureDetector interface {
	// Failed reports whether the process with world-unique id gid has been
	// detected as failed. Detection may lag the actual crash.
	Failed(gid int) bool
	// Version increases every time a new failure is detected.
	Version() int
	// Probe actively checks liveness, promoting crashed-but-undetected
	// processes to detected immediately (a ping, versus the passive
	// heartbeat timeout).
	Probe()
}

// Resilience configures fault-tolerant redistribution. A nil *Resilience
// disables the protocol entirely. All durations are in simulated seconds.
type Resilience struct {
	// Detector supplies failure notifications; required.
	Detector FailureDetector
	// Timeout is the baseline epoch deadline and the upper clamp of the
	// adaptive (RTT-derived) deadline, in simulated seconds. Default 2.
	Timeout float64
}

// The recovery ladder's fixed policy. A pass gives up with
// UnrecoverableError after maxRounds recovery rounds. Within one epoch the
// rank aborts the round after maxExtensions consecutive fruitless deadline
// extensions (progress resets the count); each extension multiplies the
// deadline by backoffFactor, up to 4x Timeout. The adaptive deadline is
// floored at Timeout/8, so a burst of fast samples cannot shrink the window
// below the detector's reaction time.
const (
	maxRounds     = 8
	maxExtensions = 3
	backoffFactor = 2
)

// validate panics on unit errors in the configured fields; called at the
// resilient entry points so mistakes surface at the call site.
func (r *Resilience) validate() {
	if r.Detector == nil {
		panic("core: Resilience requires a FailureDetector")
	}
	if r.Timeout < 0 {
		panic("core: Resilience.Timeout must be non-negative simulated seconds")
	}
}

func (r *Resilience) timeout() float64 {
	if r.Timeout > 0 {
		return r.Timeout
	}
	return 2
}

// UnrecoverableError reports a fault the recovery protocol cannot mask:
// data whose only surviving copy was lost, or a pass that kept aborting
// past its round budget. It surfaces as a panic value, which
// sim.Kernel.Run wraps (with %w) into the run error, so callers match it
// with errors.As.
type UnrecoverableError struct {
	Reason string
}

func (e *UnrecoverableError) Error() string { return "core: unrecoverable fault: " + e.Reason }

// Recovery rounds re-transfer spans with tags disjoint from the normal
// item tags (77/88 family), the wave tags, application tags, and collective
// tag blocks (1<<20 and above), so messages of an aborted attempt can never
// match a recovery receive. Each round gets its own stride so stale
// recovery traffic cannot cross rounds either. Within a round, an item owns
// waveSeqSpan tags, one per segment of a (source, target) stream, so every
// segment sequence waveTags admits is also resendable. Sixteen rounds of
// 48 items each fill [1<<18, 1<<20) exactly: a resilient pass supports
// store item indexes below 48, and rounds 0 through maxRounds must fit
// (the uint constant below does not compile otherwise).
const (
	recoveryTagBase   = 1 << 18
	recoveryRoundSpan = 48 * waveSeqSpan
)

const _ uint = 1<<20 - (recoveryTagBase + (maxRounds+1)*recoveryRoundSpan)

func recoveryTag(round, itemIdx, seq int) int {
	if seq >= waveSeqSpan {
		panic(fmt.Sprintf("core: recovery segment sequence %d exceeds the tag stride", seq))
	}
	if itemIdx >= recoveryRoundSpan/waveSeqSpan {
		panic(fmt.Sprintf("core: item index %d exceeds the recovery tag space", itemIdx))
	}
	return recoveryTagBase + round*recoveryRoundSpan + itemIdx*waveSeqSpan + seq
}

// epochState is the shared coordination block of one resilient pass: soft
// barriers (arrival sets keyed by label and round), per-round abort flags, the chunk
// acknowledgement map, and the recovery ladder's agreed rung. It is kept
// per world and matching context (passRegistry).
type epochState struct {
	arrived map[barrierKey]*softBarrier
	abort   map[int]bool

	// acks is the pass-wide chunk delivery state driving selective
	// retransmission (rung 0/2).
	acks *ackTracker
	// rung is the highest recovery rung proposed so far (-1 before any
	// escalation). Proposals land before the round's commit barrier, so
	// every survivor reads the same agreed rung when planning the next
	// round.
	rung int
	// escalated marks rungs whose escalation event has been emitted, so the
	// ladder records exactly one "escalate" event per reached rung per pass.
	escalated map[int]bool
}

// passRegistry is one world's shared state of resilient passes and
// checkpoint/restart transfers, by matching context. It lives in the
// world's extension slot, so it is collected with the world, and it needs
// no lock: only the world's own kernel touches it.
type passRegistry struct {
	epochs map[int]*epochState
	files  map[int]*crFiles

	// expiries counts the deadline waits of resilient drives that ended
	// at their deadline: those that returned false, and those whose last
	// park the deadline event ended before their step finished. A
	// fault-free pass whose epochs fit the deadline has none: such a wait
	// lost a wake its drive's readiness should have seen.
	expiries int
}

func registryOf(w *mpi.World) *passRegistry {
	slot := w.Ext()
	r, _ := (*slot).(*passRegistry)
	if r == nil {
		r = &passRegistry{epochs: map[int]*epochState{}, files: map[int]*crFiles{}}
		*slot = r
	}
	return r
}

func epochStateFor(w *mpi.World, ctxID int) *epochState {
	reg := registryOf(w)
	st := reg.epochs[ctxID]
	if st == nil {
		st = &epochState{
			arrived: map[barrierKey]*softBarrier{}, abort: map[int]bool{},
			acks: newAckTracker(), rung: -1, escalated: map[int]bool{},
		}
		reg.epochs[ctxID] = st
	}
	return st
}

// recordFault emits one instantaneous EvFault event for this rank. The
// ladder's transitions carry their rung in tag: Op "escalate" with the
// pass-global rung reached (how the trace analyzer attributes recovery cost
// per rung), Op "extend" with rung 1 per fruitless deadline extension.
// Every other fault event has tag -1.
func recordFault(c *mpi.Ctx, op string, tag int) {
	rec := c.World().Sink()
	if rec == nil {
		return
	}
	now := c.Now()
	rec.Record(trace.Event{
		Kind: trace.EvFault, Rank: c.Proc().GID(), Start: now, End: now,
		Peer: -1, Tag: tag, Comm: -1, Op: op, Phase: c.Phase(),
	})
}

// fsIO pays the checkpoint-filesystem cost for n bytes and records it as a
// compute span, so the analyzer sees local activity instead of an untraced
// gap.
func fsIO(c *mpi.Ctx, op string, n int64) {
	machine := c.World().Machine()
	fs := machine.FS()
	start := c.Now()
	c.Sleep(machine.FSLatency())
	if n > 0 {
		c.Use(fs, float64(n))
	}
	if rec := c.World().Sink(); rec != nil {
		rec.Record(trace.Event{
			Kind: trace.EvCompute, Rank: c.Proc().GID(), Start: start, End: c.Now(),
			Peer: -1, Tag: -1, Comm: -1, Bytes: n, Op: op, Phase: c.Phase(),
		})
	}
}

// passParticipants returns the world-unique ids of every process involved
// in a pass over v's communicator: both groups of an inter-communicator,
// the single group otherwise.
func passParticipants(v *view) []int {
	gids := make([]int, 0, v.comm.Size()+v.comm.RemoteSize())
	for r := 0; r < v.comm.Size(); r++ {
		gids = append(gids, v.comm.Member(r).GID())
	}
	for r := 0; r < v.comm.RemoteSize(); r++ {
		gids = append(gids, v.comm.RemoteMember(r).GID())
	}
	sort.Ints(gids)
	return gids
}

// resilientPass carries one rank's state through a fault-tolerant
// redistribution pass.
type resilientPass struct {
	cfg    Config
	v      *view
	items  []Item
	tagIdx []int
	res    *Resilience

	// recordSpans mirrors the withPhase/tagPhase split: surviving ranks
	// record EvPhase spans, spawned targets only tag their traffic.
	recordSpans bool

	st    *epochState
	parts []int
	files *crFiles

	// Ladder state, which the pass hands its transfers as hooks: the ack
	// ledger is shared pass-wide (st.acks); the RTT estimator, the Prepare
	// ledger and ticks, the progress count hooks.ticks points at, are
	// rank-local.
	hooks ladderHooks
	ticks int
	// gauge tracks the live payload bytes of wave-paced recovery rounds;
	// the pass-end report folds it with the attempt transfer's own peak.
	gauge liveGauge
	// x is the rank's round-0 attempt transfer, kept so recovery rounds can
	// reap receives that completed after the abort.
	x xfer
	// The drive in progress (resilientDrive): what it advances, and the
	// detector version its failure scan last saw. Its deadline waits park
	// on the pass itself, under driveReady.
	drive drive
	ver   int
}

// drive is what resilientDrive advances: the attempt's transfer or a
// recovery round. progress advances without blocking, and may compute and
// send, and reports completion. ready is its pure half: it only reads
// state (see sim.Cond), since the kernel tests it on each wake of the
// waiting rank, and it must hold whenever progress would do anything or
// report completion; otherwise the rank stays parked.
type drive interface {
	progress(c *mpi.Ctx) bool
	ready() bool
}

// driveReady is the readiness of a pass's drive in progress: the pass
// itself, under a type whose Done holds once a failure was detected since
// the drive last scanned for one, or once the drive can take a step. So
// parking a drive allocates nothing.
type driveReady resilientPass

func (r *driveReady) Done() bool { return r.res.Detector.Version() != r.ver || r.drive.ready() }

// runResilientPass executes one redistribution pass under the recovery
// protocol. All participants (sources and targets) must call it.
func runResilientPass(c *mpi.Ctx, cfg Config, v *view, items []Item, tagIdx []int,
	res *Resilience, recordSpans bool) {

	res.validate()
	if c.World().Machine().FS() == nil {
		panic("core: resilient redistribution needs a filesystem (cluster.Config.FSBandwidth) for the protect checkpoint")
	}
	rp := &resilientPass{
		cfg: cfg, v: v, items: items, tagIdx: tagIdx, res: res,
		recordSpans: recordSpans,
		st:          epochStateFor(c.World(), v.comm.CtxID()),
		parts:       passParticipants(v),
		files:       crStoreFor(c, v),
	}
	rp.hooks = ladderHooks{acks: rp.st.acks, prepared: map[int]bool{}, rtt: &RTTEstimator{}, ticks: &rp.ticks}
	rp.hooks.acks.setRetainBudget(cfg.MemCeiling)

	// Protect: every source persists its pass items before the epoch, so a
	// block lost to a crash (or overwritten by a Merge target's Prepare)
	// can be re-read during recovery. The soft barrier keeps any reader
	// from trusting a checkpoint its source has not finished.
	rp.inPhase(c, trace.PhaseProtect, func() { rp.protect(c) })
	rp.arrive(c, barrierKey{label: "protect", round: -1})

	// For the CR method the checkpoint IS the transfer: every round reads
	// back from the protect files and no rank resends anything — the pass
	// starts on rung 3's data path.
	checkpointOnly := cfg.Comm == CR

	for round := 0; ; round++ {
		if round > maxRounds {
			rp.unrecoverable(c, "redistribution did not converge after %d recovery rounds", maxRounds)
		}
		// The abort predicate is "a participant outside this snapshot
		// failed", never a version comparison: a failure detected before
		// the snapshot is part of the plan, one detected after it aborts
		// the round.
		failedAtPlan := rp.failedSet()
		var abort string
		switch {
		case round == 0 && len(failedAtPlan) == 0 && !checkpointOnly:
			rp.inPhase(c, trace.PhaseRedistVar, func() { abort = rp.attempt(c, failedAtPlan) })
		case round == 0 && len(failedAtPlan) == 0:
			rp.inPhase(c, trace.PhaseRedistVar, func() {
				abort = rp.recoveryRound(c, round, failedAtPlan, true)
			})
		default:
			// A participant died before this round was planned: at least
			// rung 2 (re-plan over survivors). The selective round below
			// still skips every acked chunk, so only lost or undelivered
			// data moves.
			if len(failedAtPlan) > 0 {
				rp.escalateTo(c, rungReplan)
			}
			recordFault(c, "replan", -1)
			full := checkpointOnly || rp.st.rung >= rungCheckpoint
			rp.inPhase(c, trace.PhaseRecovery, func() {
				rp.reapAttempt(c)
				abort = rp.recoveryRound(c, round, failedAtPlan, full)
			})
		}
		if abort != "" {
			rp.st.abort[round] = true
			recordFault(c, "abort", -1)
			rp.proposeRung(c, round, failedAtPlan)
			c.World().WakeAll()
		}
		// Commit barrier: the round succeeds only if nobody aborted. A
		// completer that reaches the barrier still honors a peer's abort
		// flag, so all survivors enter the next round together. Rung
		// proposals land before the barrier, so the ladder state is agreed
		// when the next round is planned. A recovery round's barrier wait is
		// time spent masking the fault — a selective round can be instant for
		// a rank with nothing to resend while its peers restore from the
		// checkpoint — so it stays inside the recovery phase window.
		commit := func() { rp.arrive(c, barrierKey{label: "commit", round: round}) }
		if round == 0 {
			commit()
		} else {
			rp.inPhase(c, trace.PhaseRecovery, commit)
		}
		if !rp.st.abort[round] {
			rp.reportPassTelemetry(c)
			return
		}
	}
}

// reportPassTelemetry publishes the pass's footprint and ladder gauges on
// success: the high-water live bytes across the attempt and every
// recovery round, the retained-copy high-water (rung-0 reservoir, bounded
// by the retention budget), and the true retransmission volume. Every
// rank reports the same pass-wide values; the sink's max-merge makes the
// order irrelevant.
func (rp *resilientPass) reportPassTelemetry(c *mpi.Ctx) {
	peak := rp.gauge.peak
	if lp, ok := rp.x.(livePeaker); ok && lp.livePeak() > peak {
		peak = lp.livePeak()
	}
	reportPeakLive(c, peak)
	reportGauge(c, PeakRetainedBytesGauge, rp.hooks.acks.peakRetained)
	reportGauge(c, RetransmittedBytesGauge, rp.hooks.acks.resentBytes)
}

// escalateTo proposes rung r for the pass. The shared rung only moves up,
// and the transition event is emitted once per reached rung per pass
// (whichever rank gets there first, deterministic under the kernel).
func (rp *resilientPass) escalateTo(c *mpi.Ctx, rung int) {
	if rung > rp.st.rung {
		rp.st.rung = rung
	}
	if !rp.st.escalated[rung] {
		rp.st.escalated[rung] = true
		recordFault(c, "escalate", rung)
	}
}

// unrecoverable records the rung-4 escalation and fails the pass with an
// UnrecoverableError.
func (rp *resilientPass) unrecoverable(c *mpi.Ctx, format string, args ...any) {
	rp.escalateTo(c, rungUnrecoverable)
	panic(&UnrecoverableError{Reason: fmt.Sprintf(format, args...)})
}

// proposeRung translates an abort into the next ladder rung, before the
// commit barrier publishes the decision.
func (rp *resilientPass) proposeRung(c *mpi.Ctx, round int, failedAtPlan map[int]bool) {
	switch {
	case rp.newFailure(failedAtPlan) >= 0:
		// A participant died mid-round: survivors must re-plan around it.
		rp.escalateTo(c, rungReplan)
	case round > 0 && rp.st.rung >= rungRetransmit:
		// A recovery round itself timed out with nobody newly dead: the
		// selective resend path is compromised, fall back to the
		// checkpoint.
		rp.escalateTo(c, rungCheckpoint)
	default:
		// Pure timeout with every participant alive: selective
		// retransmission of the unacked remainder.
		rp.escalateTo(c, rungRetransmit)
	}
}

// reapAttempt harvests receives of the aborted round-0 attempt that
// completed after the abort, so already-delivered chunks are acked before
// the recovery round plans its resends.
func (rp *resilientPass) reapAttempt(c *mpi.Ctx) {
	if r, ok := rp.x.(reaper); ok {
		r.reap(c)
	}
}

func (rp *resilientPass) inPhase(c *mpi.Ctx, phase string, fn func()) {
	if rp.recordSpans {
		withPhase(c, phase, fn)
	} else {
		tagPhase(c, phase, fn)
	}
}

// protect writes this source's blocks of every pass item to the shared
// checkpoint namespace and marks them complete.
func (rp *resilientPass) protect(c *mpi.Ctx) {
	if !rp.v.isSource() {
		return
	}
	for i, it := range rp.items {
		pl := rp.v.sourceBlock(it)
		rp.files.blocks[crKey{item: i, src: rp.v.srcRank}] = mpi.Payload{
			Size: pl.Size, Data: append([]byte(nil), pl.Data...),
		}
		fsIO(c, "cr-protect", pl.Size)
	}
	// The completion mark is what recovery trusts: a crash between the
	// writes above and this line leaves the mark unset, and no rank will
	// ever read the partial blocks.
	rp.files.complete[rp.v.srcRank] = true
}

// failedSet snapshots which participants are currently detected as
// failed: nil, which reads as empty, when none has.
func (rp *resilientPass) failedSet() map[int]bool {
	var out map[int]bool
	for _, g := range rp.parts {
		if rp.res.Detector.Failed(g) {
			if out == nil {
				out = map[int]bool{}
			}
			out[g] = true
		}
	}
	return out
}

// newFailure returns a participant detected as failed after the snapshot,
// or -1.
func (rp *resilientPass) newFailure(failedAtPlan map[int]bool) int {
	for _, g := range rp.parts {
		if rp.res.Detector.Failed(g) && !failedAtPlan[g] {
			return g
		}
	}
	return -1
}

// attempt drives the normal transfer non-blockingly so detection can
// interleave. Both sides use progress(), which keeps the algorithm family
// (scattered non-blocking) symmetric across sources and targets. The
// transfer is wired into the ladder's ack tracking so a later selective
// round knows exactly which chunks landed.
func (rp *resilientPass) attempt(c *mpi.Ctx, failedAtPlan map[int]bool) string {
	x := newXfer(rp.cfg, rp.v, rp.items, rp.tagIdx)
	if aa, ok := x.(ackAware); ok {
		aa.setLadderHooks(&rp.hooks)
	}
	rp.x = x
	return rp.resilientDrive(c, failedAtPlan, x)
}

// deadline computes the epoch deadline: the Jacobson RTO over observed
// flow completions, scaled by a pipelining safety factor (several flows
// are in flight back to back) and clamped to [Timeout/8, Timeout]. With
// no samples yet — the first epoch, or the COL path, which only observes
// phase-level completions — it is the configured fixed Timeout.
func (rp *resilientPass) deadline() float64 {
	if rp.hooks.rtt.Samples() == 0 {
		return rp.res.timeout()
	}
	d := 4 * rp.hooks.rtt.RTO()
	if min := rp.res.timeout() / 8; d < min {
		return min
	}
	if max := rp.res.timeout(); d > max {
		return max
	}
	return d
}

// resilientDrive advances d until it reports completion, under the
// ladder's rung-1 deadline policy. It returns a non-empty abort reason
// when a participant outside failedAtPlan fails, or when the adaptive
// deadline expires maxExtensions times in a row without observed progress
// (each fruitless expiry probes the detector, records an "extend" event,
// and backs the window off exponentially up to 4x Timeout; any progress
// resets both the extension budget and the window).
func (rp *resilientPass) resilientDrive(c *mpi.Ctx, failedAtPlan map[int]bool, d drive) string {

	det := rp.res.Detector
	reason := ""
	// The failure scan is O(parts); gate it on the detector version so the
	// step only pays for it when a new failure could actually have
	// appeared. The wait's readiness (driveReady) holds from that version
	// change until the step has scanned.
	rp.drive, rp.ver = d, -1
	// late records whether the deadline event ended the wait's last park:
	// the step runs at or past the deadline, and the step before it ended
	// before the deadline, so the rank was parked, not computing, when the
	// deadline fired.
	var deadline, stepEnd float64
	late := false
	step := func() bool {
		late = c.Now() >= deadline && stepEnd < deadline
		if v := det.Version(); v != rp.ver {
			rp.ver = v
			if g := rp.newFailure(failedAtPlan); g >= 0 {
				reason = fmt.Sprintf("g%d failed", g)
				return true
			}
		}
		done := d.progress(c)
		stepEnd = c.Now()
		return done
	}
	window := rp.deadline()
	for ext := 0; ; {
		ticksBefore := rp.ticks
		deadline = c.Now() + window
		if c.WaitUntilDeadline((*driveReady)(rp), step, deadline) {
			if late {
				registryOf(c.World()).expiries++
			}
			return reason
		}
		registryOf(c.World()).expiries++
		det.Probe()
		if g := rp.newFailure(failedAtPlan); g >= 0 {
			return fmt.Sprintf("g%d failed", g)
		}
		if rp.ticks != ticksBefore {
			// Flows completed inside the window: the epoch is progressing,
			// re-arm without spending the extension budget.
			ext = 0
			window = rp.deadline()
			continue
		}
		if ext >= maxExtensions {
			return "timeout"
		}
		ext++
		recordFault(c, "extend", rungAdaptive)
		window = min(window*backoffFactor, 4*rp.res.timeout())
	}
}

// recovery is one rank's state in one recovery round, and the round's
// drive.
type recovery struct {
	rp     *resilientPass
	round  int
	failed map[int]bool // participants detected failed when the round was planned
	full   bool
	net    recoveryNet

	ops      []wireOp      // staged re-issues, paced in waves by the drive
	reqs     []mpi.Request // every request the drive waits for
	received []wireOp      // receives the target walk posted, installed at commit

	// Wave-paced issue: each wave is issued once the previous one
	// completed, and the method lands that one first. landed is how many
	// ops have landed, seenDone how many of reqs progress has counted.
	waves            waveCursor
	landed, seenDone int
}

// progress lands every wave whose requests have all completed and issues
// the next, and counts request completions as epoch progress for the
// adaptive deadline. It reports whether every wave was issued and every
// request completed.
func (r *recovery) progress(c *mpi.Ctx) bool {
	for r.landed < len(r.ops) && c.Testall(r.waves.reqs) {
		r.net.land(c, r.ops[r.landed:r.waves.hi])
		r.landed = r.waves.hi
		if r.waves.issuedAll() || !r.waves.next(c) {
			break
		}
		for e := r.waves.lo; e < r.waves.hi; e++ {
			req := r.net.issue(c, &r.ops[e])
			r.reqs = append(r.reqs, req)
			r.waves.issue(req, r.ops[e].n)
		}
	}
	n := r.completed()
	if n > r.seenDone {
		r.rp.ticks += n - r.seenDone
		r.seenDone = n
	}
	return r.waves.issuedAll() && n == len(r.reqs)
}

// ready reports whether progress would act: a wave can land, a request
// completed since progress last counted, or the round is complete.
func (r *recovery) ready() bool {
	if r.landed < len(r.ops) && r.waves.landed() {
		return true
	}
	n := r.completed()
	return n > r.seenDone || r.waves.issuedAll() && n == len(r.reqs)
}

// completed counts the round's completed requests.
func (r *recovery) completed() int {
	n := 0
	for _, q := range r.reqs {
		if q.Done() {
			n++
		}
	}
	return n
}

// wireOp is one span a recovery round puts back on the network: a source's
// resend or a target's receive (two-sided), or a target's Get (one-sided).
type wireOp struct {
	key    chunkKey
	n      int64       // payload bytes
	tag    int         // resend: the round-scoped tag
	pl     mpi.Payload // resend: the payload
	off    int64       // Get: wire offset into the source's exposed block
	posted float64     // Get: issue time, for the RTT sample
	req    mpi.Request
}

// recoveryNet is one network method's re-issue inside recoveryRound. The
// round owns everything the methods share; the method only puts a span
// back on the wire.
type recoveryNet interface {
	// reissue re-requests the target's unacked span key, the seq-th of its
	// (item, source) stream, reporting false when the network no longer
	// holds the span and the target must read the checkpoint.
	reissue(c *mpi.Ctx, key chunkKey, seq int) bool
	// issue puts a staged operation on the wire.
	issue(c *mpi.Ctx, op *wireOp) mpi.Request
	// land runs, inside the drive, once on every wave whose requests have
	// all completed.
	land(c *mpi.Ctx, ops []wireOp)
}

// pristine reports whether source rank src still holds its original block
// in memory: it must be alive, and must not be a Merge rank that doubles as
// a target (its Prepare may already have resized the item in place). A full
// round trusts no in-memory block.
func (r *recovery) pristine(src int) bool {
	v := r.rp.v
	return !r.full && !r.failed[v.sourceGID(src)] && (v.inter || src >= v.nt)
}

// recoveryRound re-transfers the spans the previous rounds did not land,
// over the survivor set. Spans are re-derived from the shared memory-ceiling
// segmentation (segmentSpans of whatever plan survives), so both sides name
// identical ledger entries without metadata exchange, and the acked-interval
// merge lets a round recognize data delivered under any earlier
// segmentation.
//
// Selective mode (full == false; rungs 0 and 2): spans the ack ledger marks
// delivered are skipped. The method's recoveryNet re-issues the rest while
// the network still holds them: resendRecovery for P2P and COL,
// pullRecovery for RMA. Whatever it cannot re-issue, the target restores
// from the protect checkpoint. Every rank consults the same shared ack map
// and agreed rung — stable between the previous round's commit barrier and
// this round's traffic — so the plans agree without extra messages. Wire
// operations are paced in waves under the same ceiling as the attempt, so
// recovery traffic also respects the per-rank memory bound.
//
// Full mode (full == true; rung 3 and the CR method) ignores the ack state
// and restores every span from the checkpoint, whatever the method.
func (rp *resilientPass) recoveryRound(c *mpi.Ctx, round int, failedAtPlan map[int]bool,
	full bool) string {

	v := rp.v
	ceiling := rp.cfg.MemCeiling
	r := &recovery{rp: rp, round: round, failed: failedAtPlan, full: full}
	if rp.cfg.Comm == RMA && !full {
		r.net = newPullRecovery(c, r)
	} else {
		r.net = newResendRecovery(r)
	}
	if v.isTarget() {
		for i, it := range rp.items {
			// Re-Prepare only when nothing of this item may survive: a
			// selective round must not wipe chunks earlier rounds installed.
			if full || !rp.hooks.prepared[i] {
				lo, hi := targetRange(it, v.nt, v.tgtRank)
				it.Prepare(lo, hi)
				rp.hooks.prepared[i] = true
			}
			occ := map[int]int{}
			for _, ch := range recvChunksFor(it, v.ns, v.nt, v.tgtRank) {
				for _, sp := range segmentSpans(it, ch.Lo, ch.Hi, ceiling) {
					seq := occ[ch.Src]
					occ[ch.Src]++
					key := chunkKey{item: i, src: ch.Src, dst: ch.Dst, lo: sp.lo, hi: sp.hi}
					if !full && (rp.hooks.acks.acked(key) || r.net.reissue(c, key, seq)) {
						continue
					}
					rp.readSpan(c, i, it, ch.Src, sp.lo, sp.hi)
					rp.hooks.acks.ack(key)
				}
			}
		}
	}

	// The last wave's bytes stay on the gauge until the round commits, so
	// they are retired below, not by next.
	r.waves = newWaveCursor(len(r.ops), func(e int) int64 { return r.ops[e].n }, ceiling, &rp.gauge, false)
	if reason := rp.resilientDrive(c, failedAtPlan, r); reason != "" {
		return reason
	}
	r.waves.retire(c)
	for i := range r.received {
		rp.installSpan(&r.received[i])
		rp.hooks.acks.ack(r.received[i].key)
	}
	return ""
}

// installSpan stores a span that arrived over the network.
func (rp *resilientPass) installSpan(op *wireOp) {
	it := rp.items[op.key.item]
	pl := op.req.Payload()
	if want := it.WireBytes(op.key.lo, op.key.hi); pl.Size != want {
		panic(fmt.Sprintf("core: recovery chunk of %q: got %d bytes, want %d",
			it.Name(), pl.Size, want))
	}
	it.Install(op.key.lo, op.key.hi, pl)
}

// readSpan restores one element span from the protect checkpoint, paying
// the filesystem cost. A missing completion mark means the source crashed
// mid-write and its in-memory copy is also gone: unrecoverable.
func (rp *resilientPass) readSpan(c *mpi.Ctx, i int, it Item, src int, lo, hi int64) {
	if !rp.files.complete[src] {
		rp.unrecoverable(c, "item %q: source %d crashed before completing its protect checkpoint", it.Name(), src)
	}
	blk, ok := rp.files.blocks[crKey{item: i, src: src}]
	if !ok {
		rp.unrecoverable(c, "item %q: no checkpoint block for source %d", it.Name(), src)
	}
	srcDist := distFor(it, rp.v.ns)
	off := it.WireBytes(srcDist.Lo(src), lo)
	n := it.WireBytes(lo, hi)
	fsIO(c, "cr-restore", n)
	if blk.Data == nil {
		it.Install(lo, hi, mpi.Virtual(n))
	} else {
		it.Install(lo, hi, mpi.Payload{Size: n, Data: blk.Data[off : off+n]})
	}
}

// barrierKey names one soft barrier of a pass: a label, and the recovery
// round for per-round barriers (-1 for a barrier held once per pass).
type barrierKey struct {
	label string
	round int
}

// softBarrier is the shared arrival state of one soft barrier, and the
// condition every waiter parks on, which also describes it in deadlock
// reports. next is a cursor into the pass's participant list: both release
// conditions (arrived, detected-failed) are monotone within a pass, so a
// participant once satisfied stays satisfied and the repeated predicate
// only ever re-inspects the first unsatisfied one. Without the cursor the
// barrier is a full O(parts) scan per wake per waiter — super-quadratic
// across a 10k-rank world.
type softBarrier struct {
	key   barrierKey
	ctxID int // the communicator's matching context, for reports
	parts []int
	det   FailureDetector
	set   map[int]bool
	next  int
}

// Done reports whether every participant has arrived at b or been detected
// as failed, advancing the shared cursor past satisfied participants.
func (b *softBarrier) Done() bool {
	for b.next < len(b.parts) {
		g := b.parts[b.next]
		if !b.set[g] && !b.det.Failed(g) {
			return false
		}
		b.next++
	}
	return true
}

// String names the barrier in a deadlock report; it is formatted only when
// a report is built.
func (b *softBarrier) String() string {
	label := b.key.label
	if b.key.round >= 0 {
		label = fmt.Sprintf("%s:%d", label, b.key.round)
	}
	return fmt.Sprintf("core: resilient barrier %q on comm %d", label, b.ctxID)
}

// arrive is a soft barrier: it completes once every participant has either
// arrived at the same label or been detected as failed, so a crash can
// never wedge the protocol the way a hardware barrier would.
//
// Only the arrival that completes the barrier broadcasts a wake-up: an
// earlier arrival cannot flip any waiter's predicate (the condition is
// global and monotone), and a barrier completed by a failure instead of an
// arrival is woken by the detector's own WakeAll. Waking on every arrival
// costs O(parts) broadcasts each — the dominant term at extreme scale.
func (rp *resilientPass) arrive(c *mpi.Ctx, key barrierKey) {
	b := rp.st.arrived[key]
	if b == nil {
		b = &softBarrier{key: key, ctxID: rp.v.comm.CtxID(), parts: rp.parts,
			det: rp.res.Detector, set: map[int]bool{}}
		rp.st.arrived[key] = b
	}
	b.set[c.Proc().GID()] = true
	if b.Done() {
		c.World().WakeAll()
		return
	}
	c.WaitUntil(b)
}
