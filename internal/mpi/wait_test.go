package mpi

import "testing"

// maxWaitAllocs bounds the allocations of one Wait that parks on a pending
// Irecv until an eager message from a sleeping peer completes it. The
// count covers the whole round: the Wait's reason closure and polling load
// (2), the peer's SendReq (1), and the fabric transfer with its completion
// timers (8). Parks and wakes themselves allocate nothing.
const maxWaitAllocs = 11

// TestWaitAllocations: a Wait that parks formats no deadlock reason and
// schedules its wake without a Timer, so a round allocates no more than
// the message itself needs.
func TestWaitAllocations(t *testing.T) {
	const runs = 100
	w := testWorld(t, 2, 4, defaultTestOptions())
	var allocs float64
	early := 0 // receives already complete when Wait was called
	w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			for tag := 0; tag <= runs; tag++ { // AllocsPerRun adds a warm-up call
				c.Sleep(1)
				c.Isend(comm, 1, tag, Virtual(8))
			}
		case 1:
			rs := make([]*RecvReq, runs+1)
			for tag := range rs {
				rs[tag] = c.Irecv(comm, 0, tag)
			}
			next := 0
			allocs = testing.AllocsPerRun(runs, func() {
				if rs[next].Done() {
					early++
				}
				c.Wait(rs[next])
				next++
			})
		}
	})
	runWorld(t, w)
	if early > 0 {
		t.Fatalf("%d receives were complete before their Wait: it did not park", early)
	}
	if allocs > maxWaitAllocs {
		t.Errorf("Wait on a pending Irecv: %g allocs per round, want at most %d", allocs, maxWaitAllocs)
	}
}
