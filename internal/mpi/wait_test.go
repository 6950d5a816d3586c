package mpi

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// maxWaitAllocs bounds the allocations of one Wait that parks on a pending
// Irecv until an eager message from a sleeping peer completes it. The
// count covers the whole round, the peer's Isend included: the peer frees
// its send while it is pending, so the send's completion recycles it for
// the next round. The Wait's condition and polling load belong to its
// context; parks, wakes, the envelope, its flow and the timers allocate
// nothing.
const maxWaitAllocs = 0

// TestWaitAllocations: a Wait that parks formats no deadlock reason and
// schedules its wake without a Timer, and the freed send's request is
// recycled, so a round allocates nothing.
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
				c.Free(c.Isend(comm, 1, tag, Virtual(8)))
			}
		case 1:
			rs := make([]Request, runs+1)
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

// maxRoundTripAllocs bounds the allocations of one P2P round trip: an
// eager message each way, each an Isend, an Irecv posted before it, a
// Wait on both, and the flow's completion. Both ranks free their requests
// once they are done, so the requests come back from the world's
// freelists like the envelopes, flows, timers and deferred launches; Wait
// conditions, polling loads and the copy cost's Use waiters belong to the
// contexts.
const maxRoundTripAllocs = 0

// TestRoundTripAllocations: a ping-pong between ranks on two nodes, with
// the default copy cost and scheduler quantum, whose ranks free their
// requests, allocates nothing per round trip once the world is warm.
func TestRoundTripAllocations(t *testing.T) {
	const runs = 100
	w := testWorld(t, 2, 4, DefaultOptions())
	var allocs float64
	w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			tag := 0
			allocs = testing.AllocsPerRun(runs, func() {
				r := c.Irecv(comm, 1, tag)
				s := c.Isend(comm, 1, tag, Virtual(8))
				c.Wait(s)
				c.Free(s)
				c.Wait(r)
				c.Free(r)
				tag++
			})
		case 1:
			for tag := 0; tag <= runs; tag++ { // AllocsPerRun adds a warm-up call
				r := c.Irecv(comm, 0, tag)
				c.Wait(r)
				c.Free(r)
				s := c.Isend(comm, 0, tag, Virtual(8))
				c.Wait(s)
				c.Free(s)
			}
		}
	})
	runWorld(t, w)
	if allocs > maxRoundTripAllocs {
		t.Errorf("P2P round trip: %g allocs, want at most %d", allocs, maxRoundTripAllocs)
	}
}

// TestWaitUntilDeadlineAllocations: a polling WaitUntilDeadline that
// parks allocates nothing, whether its predicate comes true (a message
// from a sleeping peer arrives) or its deadline expires first. Its
// deadline event is the context itself and its polling load belongs to
// the context; the peer's Send and the receive behind the predicate use
// requests mpi recycles.
func TestWaitUntilDeadlineAllocations(t *testing.T) {
	const runs = 100
	w := testWorld(t, 2, 4, DefaultOptions())
	var met, expired float64
	w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			for tag := 0; tag <= runs; tag++ { // AllocsPerRun adds a warm-up call
				c.Sleep(1)
				c.Send(comm, 1, tag, Virtual(8))
			}
		case 1:
			var r *recvReq
			arrived := func() bool { return r.done }
			tag := 0
			met = testing.AllocsPerRun(runs, func() {
				r = c.irecv(comm, 0, tag)
				if !c.WaitUntilDeadline(sim.CondFunc(arrived), arrived, c.Now()+10) {
					t.Fatalf("tag %d: deadline expired before the message arrived", tag)
				}
				c.proc.w.freeRecv(r)
				tag++
			})
			never := func() bool { return false }
			expired = testing.AllocsPerRun(runs, func() {
				if c.WaitUntilDeadline(sim.CondFunc(never), never, c.Now()+0.5) {
					t.Fatal("a false predicate held")
				}
			})
		}
	})
	runWorld(t, w)
	if met != 0 || expired != 0 {
		t.Errorf("WaitUntilDeadline: %g allocs when the predicate comes true, %g when the deadline expires, want 0", met, expired)
	}
}

// TestWaitallResumesOnce: a rank that Waitalls on n receives completing at
// distinct times is woken once per completion but resumed only once, by
// the last: the kernel re-parks it on the other n-1 wakes.
func TestWaitallResumesOnce(t *testing.T) {
	const n = 8
	w := testWorld(t, 2, 4, defaultTestOptions())
	var resumes, reparks uint64
	w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			// Distinct sizes finish at distinct times. The sender exits
			// at once, so rank 1 is the only process left to resume.
			for tag := 0; tag < n; tag++ {
				c.Isend(comm, 1, tag, Virtual(int64(1000*(tag+1))))
			}
		case 1:
			rs := make([]Request, n)
			for tag := range rs {
				rs[tag] = c.Irecv(comm, 0, tag)
			}
			k := w.Kernel()
			before := k.Stats()
			c.Waitall(rs)
			after := k.Stats()
			resumes, reparks = after.Resumes-before.Resumes, after.Reparks-before.Reparks
		}
	})
	runWorld(t, w)
	if resumes != 1 {
		t.Errorf("the Waitall rank was resumed %d times after it parked, want 1", resumes)
	}
	if reparks != n-1 {
		t.Errorf("%d wakes were re-parked in the kernel, want %d", reparks, n-1)
	}
}

// TestDeadlineWaitResumesOncePerPhase: a rank that drives two
// back-to-back Ialltoallvs over n peers through one WaitUntilDeadline, as
// core's COL drive does, is resumed once per phase, by the wake that
// completes it; the kernel re-parks every other wake, one per message.
// Resumed on every wake instead, the rank would resume once per message.
func TestDeadlineWaitResumesOncePerPhase(t *testing.T) {
	const n = 8
	run := func(real bool) (resumes, reparks uint64) {
		w := testWorld(t, n, 1, defaultTestOptions())
		w.Launch(n, nil, func(c *Ctx, comm *Comm) {
			// Distinct rendezvous sizes finish at distinct times.
			send := make([]Payload, n)
			for p := range send {
				send[p] = Virtual(int64(100<<10 + 1000*(comm.Rank(c)*n+p)))
			}
			if comm.Rank(c) != 0 {
				// The peers post both phases and exit, so rank 0 is the
				// only process left to resume.
				c.Ialltoallv(comm, send)
				c.Ialltoallv(comm, send)
				return
			}
			c.Sleep(1) // until every peer has posted and exited
			phase := 0
			var req Request
			step := func() bool {
				switch {
				case phase == 0 || phase == 1 && req.Done():
					req = c.Ialltoallv(comm, send)
					phase++
					return false
				}
				return phase == 2 && req.Done()
			}
			ready := sim.CondFunc(func() bool { return true })
			if real {
				ready = func() bool { return req.Done() }
			}
			k := w.Kernel()
			before := k.Stats()
			if !c.WaitUntilDeadline(ready, step, c.Now()+10) {
				t.Error("the deadline expired before both phases completed")
			}
			after := k.Stats()
			resumes, reparks = after.Resumes-before.Resumes, after.Reparks-before.Reparks
		})
		runWorld(t, w)
		return resumes, reparks
	}
	resumes, reparks := run(true)
	everyWake, _ := run(false)
	if resumes != 2 {
		t.Errorf("the deadline wait was resumed %d times over two phases, want 2", resumes)
	}
	if resumes+reparks != everyWake {
		t.Errorf("%d resumes + %d re-parks, want the %d wakes that resume a rank on every wake", resumes, reparks, everyWake)
	}
	if everyWake < 2*(n-1) {
		t.Errorf("only %d wakes over two phases of %d peers: the phases do not complete message by message", everyWake, n)
	}
}

// BenchmarkWaitall times one Waitall over n pending receives whose
// messages arrive one at a time, so each completion is one wake of the
// waiting rank; the time and allocations are per Waitall, the receiver's
// Irecvs and the sender's Isends and Sleeps included.
func BenchmarkWaitall(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := testWorld(b, 2, 4, defaultTestOptions())
			w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
				switch comm.Rank(c) {
				case 0:
					// Each send follows the previous delivery, and the
					// first of a round follows the receiver's posts.
					for i := 0; i < b.N; i++ {
						for tag := 0; tag < n; tag++ {
							c.Sleep(1e-3)
							c.Isend(comm, 1, tag, Virtual(8))
						}
					}
				case 1:
					rs := make([]Request, n)
					for i := 0; i < b.N; i++ {
						for tag := range rs {
							rs[tag] = c.Irecv(comm, 0, tag)
						}
						c.Waitall(rs)
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			if err := w.Kernel().Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// TestMatchQueueMatchesSlice: on seeded runs of pushes and removals (at
// the head mostly, elsewhere sometimes), matchQueue keeps the same items
// in the same order as a plain slice, and its backing array stays within
// four times the most items it ever held live.
func TestMatchQueueMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q matchQueue[int]
		var ref []int
		maxCap, maxLive := 0, 0
		for op := 0; op < 5000; op++ {
			if len(ref) == 0 || rng.Intn(2) == 0 {
				q.push(op)
				ref = append(ref, op)
			} else {
				i := 0
				if rng.Intn(4) == 0 {
					i = rng.Intn(len(ref))
				}
				q.remove(i)
				ref = append(ref[:i], ref[i+1:]...)
			}
			if !slices.Equal(q.all(), ref) {
				t.Fatalf("seed %d op %d: queue %v, slice %v", seed, op, q.all(), ref)
			}
			maxCap, maxLive = max(maxCap, cap(q.items)), max(maxLive, len(ref))
		}
		if maxCap > 4*max(maxLive, 4) {
			t.Errorf("seed %d: backing array grew to %d for at most %d live items", seed, maxCap, maxLive)
		}
	}
}
