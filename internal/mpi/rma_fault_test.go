package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// rmaFaultStub is a minimal FaultHooks implementation for one-sided fault
// tests: it drops the first `drops` Gets (tag -1) and delays the rest by
// `delay`. Point-to-point traffic passes through untouched.
type rmaFaultStub struct {
	drops int
	delay float64
}

func (s *rmaFaultStub) FilterSend(src, dst *Process, tag int, comm *Comm, bytes int64) MsgVerdict {
	if tag != -1 {
		return MsgVerdict{}
	}
	if s.drops > 0 {
		s.drops--
		return MsgVerdict{Drop: true}
	}
	return MsgVerdict{Delay: s.delay}
}

func (s *rmaFaultStub) SpawnFailures(n int) int { return 0 }

// TestGetDroppedOnWire: a dropped RDMA read never completes, and a
// re-issued Get succeeds.
func TestGetDroppedOnWire(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.SetFaultHooks(&rmaFaultStub{drops: 1})
	want := []float64{1, 2, 3}
	var got []float64
	var firstDone bool
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		var local Payload
		if comm.Rank(c) == 0 {
			local = Float64s(want)
		}
		win := c.WinCreate(comm, local)
		if comm.Rank(c) == 1 {
			lost := c.Get(win, 0, 0, 24)
			c.Sleep(0.1) // far beyond the normal completion time
			firstDone = lost.Done()
			retry := c.Get(win, 0, 0, 24)
			c.Wait(retry)
			got = retry.Payload().AsFloat64s()
		}
	})
	runWorld(t, w)
	if firstDone {
		t.Error("dropped Get reported completion")
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("re-issued Get = %v, want %v", got, want)
	}
}

// TestGetDelayedOnWire: a delay verdict pushes the Get's completion past
// the injected delay without losing data.
func TestGetDelayedOnWire(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.SetFaultHooks(&rmaFaultStub{delay: 0.5})
	var done float64
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		var local Payload
		if comm.Rank(c) == 0 {
			local = Virtual(1 << 10)
		}
		win := c.WinCreate(comm, local)
		if comm.Rank(c) == 1 {
			g := c.Get(win, 0, 0, 1<<10)
			c.Wait(g)
			done = c.Now()
		}
	})
	runWorld(t, w)
	if done < 0.5 {
		t.Fatalf("delayed Get completed at %g, want >= 0.5", done)
	}
}

// TestCrashedOriginTakesNoDelivery: an origin that crashes mid-Get takes
// no delivery — its request never completes — and the run still ends
// cleanly once the transfer lands.
func TestCrashedOriginTakesNoDelivery(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	var originGID int
	var g Request
	comm := w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		var local Payload
		if comm.Rank(c) == 0 {
			local = Virtual(1 << 24) // a slow transfer, so the crash lands mid-flight
		}
		win := c.WinCreate(comm, local)
		if comm.Rank(c) == 1 {
			originGID = c.Proc().GID()
			g = c.Get(win, 0, 0, 1<<24)
			c.Wait(g)
		}
	})
	w.Kernel().At(1e-3, func() { w.KillProcess(comm.Member(1).GID()) })
	runWorld(t, w)
	if originGID != comm.Member(1).GID() {
		t.Fatalf("test wiring: origin gid %d != member(1) gid %d", originGID, comm.Member(1).GID())
	}
	if g.Done() || g.Payload().Size != 0 {
		t.Fatal("a Get delivered to an origin that crashed mid-transfer")
	}
}

// TestCrashedExposerSnapshotServes: per MPI semantics the window exposure
// is a snapshot, so a Get issued after the exposer crashed still delivers
// the data — and the closing Fence resolves for the survivor because the
// window barrier excuses dead members.
func TestCrashedExposerSnapshotServes(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	want := []float64{4, 5}
	var got []float64
	comm := w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		var local Payload
		if comm.Rank(c) == 0 {
			local = Float64s(want)
		}
		win := c.WinCreate(comm, local)
		switch comm.Rank(c) {
		case 0:
			c.Sleep(10) // killed long before this returns
		case 1:
			c.Sleep(1e-2) // after the exposer's crash
			g := c.Get(win, 0, 0, 16)
			c.Wait(g)
			got = g.Payload().AsFloat64s()
			c.Fence(win) // must not wedge on the dead member
		}
	})
	w.Kernel().At(1e-3, func() { w.KillProcess(comm.Member(0).GID()) })
	runWorld(t, w)
	if len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Fatalf("Get after exposer crash = %v, want %v", got, want)
	}
}

// TestGetFromNeverExposedDeadMember: a Get addressed to a member that died
// before exposing anything is a detectable fault, not a programming error:
// the request never completes instead of panicking.
func TestGetFromNeverExposedDeadMember(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	var done bool
	comm := w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Sleep(10) // killed before reaching WinCreate
			c.WinCreate(comm, Payload{})
		case 1:
			win := c.WinCreate(comm, Float64s([]float64{1}))
			g := c.Get(win, 0, 0, 8)
			c.Sleep(0.5)
			done = g.Done()
		}
	})
	w.Kernel().At(1e-3, func() { w.KillProcess(comm.Member(0).GID()) })
	runWorld(t, w)
	if done {
		t.Error("Get from a dead, never-exposed member reported completion")
	}
}

// TestWinCreateDeadlockDiagnosis: a live member that never arrives at the
// exposure epoch is a genuine wedge, and the deadlock report must name the
// operation, the communicator, and the missing member — the diagnosis
// quality the point-to-point paths give.
func TestWinCreateDeadlockDiagnosis(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 0 {
			c.WinCreate(comm, Payload{})
		}
		// Rank 1 exits without ever calling WinCreate: rank 0 wedges.
	})
	err := w.Kernel().Run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("run = %v, want *sim.DeadlockError", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "WinCreate") || !strings.Contains(msg, "waiting for g1") {
		t.Fatalf("deadlock report %q does not name the WinCreate epoch and the missing member", msg)
	}
}
