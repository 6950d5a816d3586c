//go:build go1.24

package mpi

import (
	"runtime"
	"testing"
	"time"
)

// TestReleasedWorldIsCollectable: a world whose recycled message state
// went back to the pool can be collected while that state lives on. The
// state has served every kind of message (eager and rendezvous sends,
// Alltoallv's request lists, Barrier's rounds), so a free envelope's flow
// or a free request that still referred to the world's fabric or kernel
// would keep it reachable, and its cleanup would never run. The kernel and
// the fabric each point back at themselves (an event's owner, a bound
// completion handler), and the collector never finalizes an object on a
// cycle, so this watches them with runtime.AddCleanup (Go 1.24), which
// does not have that limit, instead of SetFinalizer.
func TestReleasedWorldIsCollectable(t *testing.T) {
	collected := make(chan string, 2)
	rc := releasedState(t, collected)
	if len(rc.envs.free) == 0 || len(rc.sends.free) == 0 || len(rc.recvs.free) == 0 || len(rc.sendLists.lists) == 0 {
		t.Fatalf("released state holds %d envelopes, %d sends, %d receives, %d lists: the world recycled nothing",
			len(rc.envs.free), len(rc.sends.free), len(rc.recvs.free), len(rc.sendLists.lists))
	}
	left := map[string]bool{"kernel": true, "fabric": true}
	for i := 0; i < 50 && len(left) > 0; i++ {
		runtime.GC()
		select {
		case what := <-collected:
			delete(left, what)
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(rc)
	for what := range left {
		t.Errorf("the released world's %s was never collected: its recycled state still refers to it", what)
	}
}

// releasedState runs a world through every kind of message, releases it,
// and returns the state it released. collected receives "kernel" and
// "fabric" as the world's kernel and fabric are collected.
func releasedState(t *testing.T, collected chan<- string) *recycled {
	opts := DefaultOptions()
	opts.EagerThreshold = 4 << 10
	w := testWorld(t, 2, 2, opts)
	w.Launch(4, nil, func(c *Ctx, comm *Comm) {
		send := make([]Payload, comm.Size())
		for i := range send {
			send[i] = Virtual(int64(1+i) << 11) // eager and rendezvous
		}
		c.Alltoallv(comm, send)
		c.Barrier(comm)
		c.Alltoallv(comm, send)
	})
	runWorld(t, w)
	report := func(what string) { collected <- what }
	runtime.AddCleanup(w.Kernel(), report, "kernel")
	runtime.AddCleanup(w.Machine().Fabric(), report, "fabric")
	rc := w.msg()
	w.Release()
	return rc
}
