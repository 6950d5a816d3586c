package core

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestAckTrackerBoundedLedger pins the memory-bounded ledger invariants at
// the unit level: acks reap live entries immediately, delivered segments
// coalesce into merged intervals that answer containment under any later
// segmentation, the retention budget evicts beyond the ceiling, and the
// retransmission counter only charges spans that actually travelled once.
func TestAckTrackerBoundedLedger(t *testing.T) {
	a := newAckTracker()
	a.setRetainBudget(512)

	key := func(lo, hi int64) chunkKey {
		return chunkKey{item: 0, src: 3, dst: 1, lo: lo, hi: hi}
	}

	// Four 256-byte segments of one 1024-byte chunk. The 512-byte budget
	// admits the first two retained copies and evicts the rest.
	segs := []chunkKey{key(0, 32), key(32, 64), key(64, 96), key(96, 128)}
	for _, k := range segs {
		a.retain(k, mpi.Virtual(256))
		a.markSent(k)
	}
	if got := len(a.chunks); got != 4 {
		t.Fatalf("%d spans hold ledger state after 4 unacked retains, want 4", got)
	}
	if a.peakRetained != 512 {
		t.Errorf("peakRetained = %d, want 512 (budget admits exactly two copies)", a.peakRetained)
	}
	if _, ok := a.retainedCopy(segs[1]); !ok {
		t.Error("second span's copy missing: it fits the budget")
	}
	if _, ok := a.retainedCopy(segs[2]); ok {
		t.Error("third span's copy survived: the budget should have evicted it")
	}

	// Only spans that entered the wire count as retransmissions.
	fresh := key(128, 160)
	a.noteResend(fresh, 256) // never sent: a first transmission, not a resend
	if a.resentBytes != 0 {
		t.Errorf("resentBytes = %d after resending a never-sent span, want 0", a.resentBytes)
	}
	a.noteResend(segs[0], 256)
	if a.resentBytes != 256 {
		t.Errorf("resentBytes = %d after one genuine resend, want 256", a.resentBytes)
	}

	// Acks reap live state immediately and release the retained bytes.
	for _, k := range segs {
		a.ack(k)
	}
	if got := len(a.chunks); got != 0 {
		t.Errorf("%d spans hold ledger state after acking every span, want 0 (reap at ack)", got)
	}
	if a.retained[3] != 0 {
		t.Errorf("retained[3] = %d bytes after acking every span, want 0", a.retained[3])
	}

	// Adjacent segments coalesce, so containment holds under a coarser
	// segmentation than the one that delivered the data.
	if got := len(a.done[segs[0].id()]); got != 1 {
		t.Errorf("done intervals = %d, want 1 (adjacent segments must merge)", got)
	}
	if !a.acked(key(0, 128)) {
		t.Error("whole chunk not acked: four delivered quarters must cover it")
	}
	if a.acked(key(0, 160)) {
		t.Error("chunk with an undelivered tail reported acked")
	}

	// Retaining an already-delivered span is a no-op: the ledger never
	// regrows for finished work.
	a.retain(key(0, 32), mpi.Virtual(256))
	if got := len(a.chunks); got != 0 {
		t.Errorf("%d spans hold ledger state after retaining a delivered span, want 0", got)
	}
}

// TestWaveRung0RetransmitsOnlyIncompleteWave drops one ceiling-sized segment
// of the variable item under a wave schedule. The pass times out once, stays
// on rung 0, and the recovery round resends only the lost segment — at most
// one ceiling of bytes, never the whole wave, with no checkpoint reads.
func TestWaveRung0RetransmitsOnlyIncompleteWave(t *testing.T) {
	// 512-byte ceiling against the 2000-byte per-source "x" block: four
	// segments per (source, target) pair, issued as separate waves.
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync, MemCeiling: 512}
	const ns, nt = 4, 2
	// Waved segments travel per-sequence tags; "x" is store index 2 and the
	// rule hits its first segment toward some target.
	_, xWaveTag := waveTags(2, 0)
	hooks := &testMsgFaults{rules: []*msgFault{
		// Source g3 is a pure source (rank >= nt): its block stays pristine,
		// so even a segment whose retained copy the budget evicted re-extracts
		// in memory instead of falling back to the checkpoint.
		{srcGID: 3, minTag: xWaveTag, maxTag: xWaveTag, count: 1, drop: true},
	}}
	err, events := ladderRun(t, cfg, ns, nt, &Resilience{Timeout: 0.5}, hooks, -1, -1, true)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n := countFaultEvents(events, "escalate", rungRetransmit); n != 1 {
		t.Errorf("rung-0 escalations = %d, want exactly 1", n)
	}
	for r := rungReplan; r <= rungUnrecoverable; r++ {
		if n := countFaultEvents(events, "escalate", r); n != 0 {
			t.Errorf("rung-%d escalations = %d, want 0: one dropped segment must stay on rung 0", r, n)
		}
	}
	if n := countComputeOps(events, "cr-restore"); n != 0 {
		t.Errorf("checkpoint reads = %d, want 0: rung 0 resends in memory", n)
	}
	resent := sumSendBytes(events, trace.PhaseRecovery)
	full := sumSendBytes(events, trace.PhaseRedistVar)
	if resent <= 0 {
		t.Fatalf("retransmitted %d bytes, want > 0: the dropped segment must be resent", resent)
	}
	if resent > cfg.MemCeiling {
		t.Errorf("retransmitted %d bytes, want <= the %d-byte ceiling: rung 0 must resend only the lost segment, not its whole wave", resent, cfg.MemCeiling)
	}
	if resent >= full {
		t.Errorf("retransmitted %d bytes vs %d in the full round, want resent < full", resent, full)
	}
}

// TestCrashMidWaveDataIdentity crashes a pure source in the middle of the
// wave-scheduled variable transfer. The survivors must finish at rung 2 or
// below — a partial re-plan, never the rung-3 full restore — and every
// target's block must come back byte-exact, including the chunks delivered
// by waves the victim completed before dying.
func TestCrashMidWaveDataIdentity(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync, MemCeiling: 512}
	const ns, nt, victim = 4, 2, 3
	_, probeEvents := ladderRun(t, cfg, ns, nt, &Resilience{}, nil, -1, -1, false)
	crashAt := probeSpan(t, probeEvents, trace.EvPhase, trace.PhaseRedistVar, -1)

	err, events := ladderRun(t, cfg, ns, nt, &Resilience{}, nil, victim, crashAt, true)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if n := countFaultEvents(events, "replan", -1); n == 0 {
		t.Error("no replan event: the mid-wave crash did not exercise the re-plan rung")
	}
	for r := rungCheckpoint; r <= rungUnrecoverable; r++ {
		if n := countFaultEvents(events, "escalate", r); n != 0 {
			t.Errorf("rung-%d escalations = %d, want 0: a mid-wave source crash must resolve at rung <= 2", r, n)
		}
	}
}

// TestRecoveryTagsCoverWaveSequences drops one late segment of a long
// stream: under a 16-byte ceiling each 250-element block of "x" travels as
// 125 two-element segments, and the lost one is segment 100. The selective
// round must resend it under its own recovery tag, on rung 0, byte-exact,
// without touching the checkpoint: recovery tags admit every segment
// sequence the wave tags do.
func TestRecoveryTagsCoverWaveSequences(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync, MemCeiling: 16}
	const ns, nt = 4, 2
	tag := WaveValueTag(2, 100)
	hooks := &testMsgFaults{rules: []*msgFault{
		{srcGID: 3, minTag: tag, maxTag: tag, count: 1, drop: true},
	}}
	err, events := ladderRun(t, cfg, ns, nt, &Resilience{Timeout: 0.5}, hooks, -1, -1, true)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n := countFaultEvents(events, "escalate", rungRetransmit); n != 1 {
		t.Errorf("rung-0 escalations = %d, want 1", n)
	}
	for r := rungReplan; r <= rungUnrecoverable; r++ {
		if n := countFaultEvents(events, "escalate", r); n != 0 {
			t.Errorf("rung-%d escalations = %d, want 0: one dropped segment stays on rung 0", r, n)
		}
	}
	if n := countComputeOps(events, "cr-restore"); n != 0 {
		t.Errorf("checkpoint reads = %d, want 0: the live source resends the segment", n)
	}
}
