package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// msgFault is one tag-scoped message rule of the test fault hooks.
type msgFault struct {
	srcGID         int // world-unique sender id; -1 matches any
	minTag, maxTag int // inclusive tag range
	count          int // matches left; -1 is unlimited
	drop           bool
	delay          float64
}

// testMsgFaults implements mpi.FaultHooks for the ladder tests. core cannot
// import the fault package (fault is core's client), so the rung scenarios
// inject their message faults through this minimal local stub.
type testMsgFaults struct{ rules []*msgFault }

func (f *testMsgFaults) FilterSend(src, dst *mpi.Process, tag int, comm *mpi.Comm, bytes int64) mpi.MsgVerdict {
	for _, r := range f.rules {
		if r.count == 0 || (r.srcGID >= 0 && src.GID() != r.srcGID) ||
			tag < r.minTag || tag > r.maxTag {
			continue
		}
		if r.count > 0 {
			r.count--
		}
		return mpi.MsgVerdict{Drop: r.drop, Delay: r.delay}
	}
	return mpi.MsgVerdict{}
}

func (f *testMsgFaults) SpawnFailures(n int) int { return 0 }

// ladderRun is resilientRun with an explicit Resilience (Detector filled in
// here) and optional message-fault hooks, for scenarios that exercise a
// specific rung of the recovery ladder.
func ladderRun(t *testing.T, cfg Config, ns, nt int, res *Resilience, hooks mpi.FaultHooks,
	victimGID int, crashAt float64, verify bool) (error, []trace.Event) {
	t.Helper()
	const n = 1000
	w := testWorld(t)
	rec := trace.NewRecorder()
	w.SetSink(rec)
	if hooks != nil {
		w.SetFaultHooks(hooks)
	}
	det := newStubDetector(w)
	if crashAt >= 0 {
		det.killAt(victimGID, crashAt)
	}
	res.Detector = det

	var mu sync.Mutex
	verified := map[int]bool{}
	w.Launch(ns, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		rank := comm.Rank(c)
		st := buildStore(n, ns, rank)
		r := StartReconfigRes(c, cfg, comm, nt, st,
			func() *Store { return emptyStore(n) }, nil, res)
		x := st.Item("x").(*DenseItem)
		vals := x.Float64s()
		lo, _ := x.Block()
		for i := range vals {
			vals[i] = globalValue(2, int(lo)+i) + sentinelOffset
		}
		copy(x.Data(), mpi.Float64s(vals).Data)
		r.Wait(c)
		if r.Continues() && verify {
			tgt := r.NewComm().Rank(c)
			verifyStore(t, fmt.Sprintf("recovered target %d", tgt), st, n, nt, tgt)
			mu.Lock()
			verified[tgt] = true
			mu.Unlock()
		}
	})
	err := w.Kernel().Run()
	if verify && err == nil {
		mu.Lock()
		if len(verified) != nt {
			t.Errorf("%d targets verified, want %d", len(verified), nt)
		}
		mu.Unlock()
	}
	return err, rec.Events()
}

// countFaultEvents counts EvFault events with the given op; tag -1 matches
// any tag, otherwise the event's Tag must equal it (the rung for "escalate").
func countFaultEvents(events []trace.Event, op string, tag int) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == trace.EvFault && ev.Op == op && (tag < 0 || ev.Tag == tag) {
			n++
		}
	}
	return n
}

// countComputeOps counts EvCompute spans with the given op (e.g.
// "cr-restore" for checkpoint reads).
func countComputeOps(events []trace.Event, op string) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == trace.EvCompute && ev.Op == op {
			n++
		}
	}
	return n
}

// sumSendBytes totals the EvSend bytes tagged with the given phase.
func sumSendBytes(events []trace.Event, phase string) int64 {
	var n int64
	for _, ev := range events {
		if ev.Kind == trace.EvSend && ev.Phase == phase {
			n += ev.Bytes
		}
	}
	return n
}

// phaseEnd returns the latest End across all EvPhase spans with the given op.
func phaseEnd(t *testing.T, events []trace.Event, op string) float64 {
	t.Helper()
	end, found := 0.0, false
	for _, ev := range events {
		if ev.Kind == trace.EvPhase && ev.Op == op {
			if !found || ev.End > end {
				end = ev.End
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("probe run recorded no %s phase span", op)
	}
	return end
}

// TestRung0SelectiveRetransmission drops exactly one variable-item value
// message. The epoch times out, stays on rung 0, and the recovery round
// resends only the lost chunk from its retained copy: strictly fewer bytes
// than the full round moved, no checkpoint reads, byte-exact data.
func TestRung0SelectiveRetransmission(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync}
	const ns, nt = 4, 2
	_, xValueTag := itemTags(2) // "x" is store index 2
	hooks := &testMsgFaults{rules: []*msgFault{
		{srcGID: -1, minTag: xValueTag, maxTag: xValueTag, count: 1, drop: true},
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
			t.Errorf("rung-%d escalations = %d, want 0: one dropped message must stay on rung 0", r, n)
		}
	}
	if n := countComputeOps(events, "cr-restore"); n != 0 {
		t.Errorf("checkpoint reads = %d, want 0: rung 0 resends from retained copies", n)
	}
	resent := sumSendBytes(events, trace.PhaseRecovery)
	full := sumSendBytes(events, trace.PhaseRedistVar)
	if resent <= 0 || resent >= full {
		t.Errorf("retransmitted %d bytes vs %d in the full round, want 0 < resent < full", resent, full)
	}
}

// TestRung1AdaptiveDeadlineExtension delays one value message past the
// baseline deadline. The adaptive policy extends the window (recording
// "extend" events) until the message lands; the pass never aborts and never
// escalates.
func TestRung1AdaptiveDeadlineExtension(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync}
	const ns, nt = 4, 2
	_, xValueTag := itemTags(2)
	hooks := &testMsgFaults{rules: []*msgFault{
		{srcGID: -1, minTag: xValueTag, maxTag: xValueTag, count: 1, delay: 1.5},
	}}
	res := &Resilience{Timeout: 1}
	err, events := ladderRun(t, cfg, ns, nt, res, hooks, -1, -1, true)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n := countFaultEvents(events, "extend", -1); n == 0 {
		t.Error("no extend events: the delayed message should have forced deadline extensions")
	}
	if n := countFaultEvents(events, "abort", -1); n != 0 {
		t.Errorf("abort events = %d, want 0: extensions alone must absorb the delay", n)
	}
	if n := countFaultEvents(events, "escalate", -1); n != 0 {
		t.Errorf("escalate events = %d, want 0: rung 1 is a deadline policy, not an escalation", n)
	}
}

// TestRung2ReplanSkipsCheckpoint crashes a pure source after all its chunks
// were delivered, while a delayed chunk from a different (surviving) source
// holds the epoch open. The pass escalates to rung 2, re-plans over the
// survivors, and resends the missing chunk from its retained copy — the
// checkpoint is never read because pristine copies suffice.
func TestRung2ReplanSkipsCheckpoint(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync}
	const ns, nt, victim = 4, 2, 3
	_, probeEvents := resilientRun(t, cfg, ns, nt, -1, -1, false)
	varEnd := phaseEnd(t, probeEvents, trace.PhaseRedistVar)

	_, xValueTag := itemTags(2)
	hooks := &testMsgFaults{rules: []*msgFault{
		// Source g2's variable chunk arrives 5s late, holding the epoch open
		// well past the crash below.
		{srcGID: 2, minTag: xValueTag, maxTag: xValueTag, count: 1, delay: 5},
	}}
	err, events := ladderRun(t, cfg, ns, nt, &Resilience{}, hooks, victim, varEnd+0.05, true)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if n := countFaultEvents(events, "escalate", rungReplan); n != 1 {
		t.Errorf("rung-2 escalations = %d, want exactly 1", n)
	}
	if n := countFaultEvents(events, "escalate", rungCheckpoint); n != 0 {
		t.Errorf("rung-3 escalations = %d, want 0", n)
	}
	if n := countComputeOps(events, "cr-restore"); n != 0 {
		t.Errorf("checkpoint reads = %d, want 0: the dead source's chunks were all delivered, the rest have pristine copies", n)
	}
	if n := countFaultEvents(events, "replan", -1); n == 0 {
		t.Error("no replan event: the crash did not trigger a re-plan round")
	}
}

// TestRung3CheckpointFallback drops every value and recovery message from
// one source, so both the attempt and the selective retransmission round
// time out. The pass then falls back to rung 3 and restores everything from
// the protect checkpoint.
func TestRung3CheckpointFallback(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync}
	const ns, nt = 4, 2
	hooks := &testMsgFaults{rules: []*msgFault{
		// Tag 88 up to (but excluding) the collective tag block: all value
		// tags and all recovery tags, size tags (77 family) pass through.
		{srcGID: 3, minTag: 88, maxTag: 1<<20 - 1, count: -1, drop: true},
	}}
	err, events := ladderRun(t, cfg, ns, nt, &Resilience{Timeout: 0.5}, hooks, -1, -1, true)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n := countFaultEvents(events, "escalate", rungRetransmit); n != 1 {
		t.Errorf("rung-0 escalations = %d, want 1 (the first timeout tries selective resend)", n)
	}
	if n := countFaultEvents(events, "escalate", rungCheckpoint); n != 1 {
		t.Errorf("rung-3 escalations = %d, want 1 (the second timeout falls back to the checkpoint)", n)
	}
	if n := countFaultEvents(events, "escalate", rungReplan); n != 0 {
		t.Errorf("rung-2 escalations = %d, want 0: nobody died", n)
	}
	if n := countComputeOps(events, "cr-restore"); n == 0 {
		t.Error("no checkpoint reads: rung 3 must restore from the protect files")
	}
	if n := countFaultEvents(events, "abort", -1); n < 2 {
		t.Errorf("abort events = %d, want >= 2 (attempt and selective round both time out)", n)
	}
}

// TestRung4EscalationEvent pins the top of the ladder: a crash before the
// protect checkpoint completed is unrecoverable, and the failure is recorded
// as a rung-4 escalation event before the pass dies.
func TestRung4EscalationEvent(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync}
	const ns, nt, victim = 4, 2, 3
	_, probeEvents := resilientRun(t, cfg, ns, nt, -1, -1, false)
	crashAt := probeSpan(t, probeEvents, trace.EvCompute, "cr-protect", victim)

	err, events := resilientRun(t, cfg, ns, nt, victim, crashAt, false)
	var ue *UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("run = %v, want *UnrecoverableError", err)
	}
	if n := countFaultEvents(events, "escalate", rungUnrecoverable); n == 0 {
		t.Error("no rung-4 escalation event: the unrecoverable fault must be on the ladder record")
	}
}
