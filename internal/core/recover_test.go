package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// stubDetector is a minimal FailureDetector for core-level tests: a kernel
// timer kills the victim and marks it failed in the same instant. The sim
// kernel serializes all execution, so no locking is needed.
type stubDetector struct {
	w       *mpi.World
	failed  map[int]bool
	version int
}

func newStubDetector(w *mpi.World) *stubDetector {
	return &stubDetector{w: w, failed: map[int]bool{}}
}

func (d *stubDetector) Failed(gid int) bool { return d.failed[gid] }
func (d *stubDetector) Version() int        { return d.version }
func (d *stubDetector) Probe()              {}

// killAt schedules a crash of gid at virtual time at, detected immediately.
func (d *stubDetector) killAt(gid int, at float64) {
	d.w.Kernel().At(at, func() {
		d.w.KillProcess(gid)
		d.failed[gid] = true
		d.version++
		d.w.WakeAll()
	})
}

// resilientRun executes one Merge ns->nt reconfiguration under the recovery
// protocol, crashing victimGID at crashAt (no crash when crashAt < 0), and
// returns the kernel error plus the recorded events. Victims mutate the
// variable item before Wait, so surviving targets can verify byte-exact
// restored content with verifyStore. See ladderRun (ladder_test.go) for the
// generalized variant with custom Resilience and message-fault hooks.
func resilientRun(t *testing.T, cfg Config, ns, nt int, victimGID int, crashAt float64,
	verify bool) (error, []trace.Event) {
	t.Helper()
	return ladderRun(t, cfg, ns, nt, &Resilience{}, nil, victimGID, crashAt, verify)
}

// probeSpan locates the first event of the given kind/op/rank in a
// fault-free probe run, returning its midpoint.
func probeSpan(t *testing.T, events []trace.Event, kind trace.EventKind, op string, rank int) float64 {
	t.Helper()
	for _, ev := range events {
		if ev.Kind == kind && ev.Op == op && (rank < 0 || ev.Rank == rank) {
			if ev.End <= ev.Start {
				t.Fatalf("%s/%s span on rank %d is empty", kind, op, rank)
			}
			return (ev.Start + ev.End) / 2
		}
	}
	t.Fatalf("probe run recorded no %s/%s span for rank %d", kind, op, rank)
	return 0
}

// TestCrashMidProtectIsUnrecoverable crashes a source in the middle of
// writing its protect checkpoint, before the completion mark. No target may
// read the partially written blocks: the run must fail with an
// UnrecoverableError naming the missing checkpoint, not deliver data.
func TestCrashMidProtectIsUnrecoverable(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: P2P, Overlap: Sync}
	const ns, nt, victim = 4, 2, 3

	_, events := resilientRun(t, cfg, ns, nt, -1, -1, false)
	crashAt := probeSpan(t, events, trace.EvCompute, "cr-protect", victim)

	err, _ := resilientRun(t, cfg, ns, nt, victim, crashAt, false)
	var ue *UnrecoverableError
	if !errors.As(err, &ue) {
		t.Fatalf("run = %v, want *UnrecoverableError", err)
	}
	if !strings.Contains(ue.Reason, "checkpoint") || !strings.Contains(ue.Reason, "source 3") {
		t.Fatalf("Reason = %q, want the incomplete checkpoint of source 3 named", ue.Reason)
	}
}

// TestRecoveryRestoresExactData crashes a source mid-transfer, after the
// protect checkpoint completed: the survivors must finish and every target
// must hold byte-exact content, including the mutated variable values the
// dead source never finished sending.
func TestRecoveryRestoresExactData(t *testing.T) {
	for _, comm := range []CommMethod{P2P, COL, RMA} {
		cfg := Config{Spawn: Merge, Comm: comm, Overlap: Sync}
		t.Run(cfg.String(), func(t *testing.T) {
			const ns, nt, victim = 4, 2, 3
			_, events := resilientRun(t, cfg, ns, nt, -1, -1, false)
			crashAt := probeSpan(t, events, trace.EvPhase, trace.PhaseRedistVar, -1)
			err, crashEvents := resilientRun(t, cfg, ns, nt, victim, crashAt, true)
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			replans := 0
			for _, ev := range crashEvents {
				if ev.Kind == trace.EvFault && ev.Op == "replan" {
					replans++
				}
			}
			if replans == 0 {
				t.Fatal("no replan event: the crash did not exercise recovery")
			}
		})
	}
}

// TestRMACrashedWindowOwnerRecoversAtRungTwo crashes a pure source — under
// RMA, exactly a window owner — in the middle of the one-sided transfer
// epoch. The survivors must escalate no higher than rung 2: fresh windows
// over the pristine survivors plus checkpoint reads for the lost source,
// never the rung-3 full restore. Data must come back byte-exact.
func TestRMACrashedWindowOwnerRecoversAtRungTwo(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: RMA, Overlap: Sync}
	const ns, nt, victim = 4, 2, 3

	_, probeEvents := resilientRun(t, cfg, ns, nt, -1, -1, false)
	crashAt := probeSpan(t, probeEvents, trace.EvPhase, trace.PhaseRedistVar, -1)

	err, events := resilientRun(t, cfg, ns, nt, victim, crashAt, true)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if n := countFaultEvents(events, "escalate", rungReplan); n != 1 {
		t.Errorf("rung-2 escalations = %d, want exactly 1", n)
	}
	for r := rungCheckpoint; r <= rungUnrecoverable; r++ {
		if n := countFaultEvents(events, "escalate", r); n != 0 {
			t.Errorf("rung-%d escalations = %d, want 0: a crashed window owner must recover at rung <= 2", r, n)
		}
	}
	if n := countComputeOps(events, "cr-restore"); n == 0 {
		t.Error("no checkpoint reads: the dead window owner's undelivered chunks must restore from the protect files")
	}
}

// TestRMADroppedGetStaysOnRungZero drops exactly one RDMA read on the wire.
// The epoch times out, stays on rung 0, and the recovery round re-issues
// only the lost Get against the still-exposed snapshot: no window is
// re-created, no checkpoint is read, no source participates, and the data
// arrives byte-exact.
func TestRMADroppedGetStaysOnRungZero(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: RMA, Overlap: Sync}
	const ns, nt = 4, 2
	hooks := &testMsgFaults{rules: []*msgFault{
		// One-sided Gets carry the RMA sentinel tag -1.
		{srcGID: -1, minTag: -1, maxTag: -1, count: 1, drop: true},
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
			t.Errorf("rung-%d escalations = %d, want 0: one dropped Get must stay on rung 0", r, n)
		}
	}
	if n := countComputeOps(events, "cr-restore"); n != 0 {
		t.Errorf("checkpoint reads = %d, want 0: rung 0 re-pulls from the exposed snapshot", n)
	}
}

// TestRMADelayedGetExtendsDeadline delays one RDMA read past the baseline
// deadline. The Get-completion RTT samples gathered from the quick
// transfers drive the rung-1 adaptive policy: the epoch extends (recording
// "extend" events) until the straggler lands, without aborting and without
// escalating.
func TestRMADelayedGetExtendsDeadline(t *testing.T) {
	cfg := Config{Spawn: Merge, Comm: RMA, Overlap: Sync}
	const ns, nt = 4, 2
	hooks := &testMsgFaults{rules: []*msgFault{
		{srcGID: -1, minTag: -1, maxTag: -1, count: 1, delay: 1.5},
	}}
	res := &Resilience{Timeout: 1}
	err, events := ladderRun(t, cfg, ns, nt, res, hooks, -1, -1, true)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n := countFaultEvents(events, "extend", -1); n == 0 {
		t.Error("no extend events: the delayed Get should have forced deadline extensions")
	}
	if n := countFaultEvents(events, "abort", -1); n != 0 {
		t.Errorf("abort events = %d, want 0: extensions alone must absorb the delay", n)
	}
	if n := countFaultEvents(events, "escalate", -1); n != 0 {
		t.Errorf("escalate events = %d, want 0: rung 1 is a deadline policy, not an escalation", n)
	}
}

// TestResilienceRequiresDetector: a Resilience without a detector is a
// programming error, caught at the call site.
func TestResilienceRequiresDetector(t *testing.T) {
	w := testWorld(t)
	w.Launch(2, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		defer func() {
			if recover() == nil {
				t.Error("nil detector did not panic")
			}
		}()
		StartReconfigRes(c, Config{Spawn: Merge, Comm: P2P, Overlap: Sync},
			comm, 4, buildStore(100, 2, comm.Rank(c)),
			func() *Store { return emptyStore(100) }, nil, &Resilience{})
	})
	_ = w.Kernel().Run()
}

// A soft barrier names itself in deadlock reports: a per-pass barrier by
// its label, a per-round one as label:round.
func TestSoftBarrierReportText(t *testing.T) {
	for _, c := range []struct {
		key  barrierKey
		want string
	}{
		{barrierKey{label: "protect", round: -1}, `core: resilient barrier "protect" on comm 7`},
		{barrierKey{label: "commit", round: 0}, `core: resilient barrier "commit:0" on comm 7`},
		{barrierKey{label: "commit", round: 3}, `core: resilient barrier "commit:3" on comm 7`},
	} {
		if got := (&softBarrier{key: c.key, ctxID: 7}).String(); got != c.want {
			t.Errorf("%+v: report %q, want %q", c.key, got, c.want)
		}
	}
}
