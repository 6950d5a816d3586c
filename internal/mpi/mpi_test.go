package mpi

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// testWorld builds a small machine for protocol tests: fast, simple
// arithmetic, no noise.
func testWorld(t testing.TB, nodes, cores int, opts Options) *World {
	t.Helper()
	k := sim.NewKernel()
	cfg := cluster.Config{
		Nodes:        nodes,
		CoresPerNode: cores,
		Net: netmodel.Params{
			Name:           "test",
			Latency:        1e-6,
			Bandwidth:      1e9,
			IntraLatency:   1e-7,
			IntraBandwidth: 1e10,
			IntraPerFlow:   1e10,
		},
		SpawnBase:    1e-3,
		SpawnPerProc: 1e-4,
		Seed:         1,
	}
	return NewWorld(cluster.New(k, cfg), opts)
}

func runWorld(t *testing.T, w *World) {
	t.Helper()
	if err := w.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
}

func defaultTestOptions() Options {
	o := DefaultOptions()
	o.CopyRate = 0 // keep timing arithmetic simple in protocol tests
	o.SchedQuantum = 0
	return o
}

func TestSendRecvDeliversData(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	want := []float64{1, 2, 3.5, -4}
	var got []float64
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Send(comm, 1, 7, Float64s(want))
		case 1:
			pl, st := c.Recv(comm, 0, 7)
			got = pl.AsFloat64s()
			if st.Source != 0 || st.Tag != 7 || st.Size != 32 {
				t.Errorf("status = %+v, want {0 7 32}", st)
			}
		}
	})
	runWorld(t, w)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestVirtualPayloadTimesLikeRealBytes(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	// 1 MB at 1 GB/s across nodes (ranks on different nodes need placement).
	nodeOf := func(r int) int { return r }
	var done float64
	w.Launch(2, nodeOf, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Send(comm, 1, 1, Virtual(1<<20))
		case 1:
			c.Recv(comm, 0, 1)
			done = c.Now()
		}
	})
	runWorld(t, w)
	want := 1e-6 + float64(1<<20)/1e9
	if math.Abs(done-want) > 1e-9 {
		t.Fatalf("recv done at %g, want %g", done, want)
	}
}

func TestNonOvertakingOrder(t *testing.T) {
	// Two same-tag messages from one sender must arrive in send order even
	// though the first is much larger (slower on the wire).
	w := testWorld(t, 2, 4, defaultTestOptions())
	nodeOf := func(r int) int { return r }
	var order []int64
	w.Launch(2, nodeOf, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			r1 := c.Isend(comm, 1, 5, Virtual(1<<20)) // big, slow
			r2 := c.Isend(comm, 1, 5, Virtual(8))     // small, fast
			c.Waitall([]Request{r1, r2})
		case 1:
			p1, _ := c.Recv(comm, 0, 5)
			p2, _ := c.Recv(comm, 0, 5)
			order = append(order, p1.Size, p2.Size)
		}
	})
	runWorld(t, w)
	if !reflect.DeepEqual(order, []int64{1 << 20, 8}) {
		t.Fatalf("order = %v, want [1048576 8]", order)
	}
}

func TestEagerSendCompletesWithoutReceiver(t *testing.T) {
	// A small blocking Send must complete even though the receive is posted
	// much later (eager protocol).
	w := testWorld(t, 2, 4, defaultTestOptions())
	var sendDone float64
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Send(comm, 1, 1, Virtual(128)) // below eager threshold
			sendDone = c.Now()
		case 1:
			c.Sleep(1.0)
			c.Recv(comm, 0, 1)
		}
	})
	runWorld(t, w)
	if sendDone >= 1.0 {
		t.Fatalf("eager Send completed at %g, want well before the receive at 1.0", sendDone)
	}
}

func TestRendezvousSendWaitsForReceiver(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	var sendDone float64
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Send(comm, 1, 1, Virtual(1<<20)) // above eager threshold
			sendDone = c.Now()
		case 1:
			c.Sleep(0.5)
			c.Recv(comm, 0, 1)
		}
	})
	runWorld(t, w)
	if sendDone < 0.5 {
		t.Fatalf("rendezvous Send completed at %g, want after the receive post at 0.5", sendDone)
	}
}

func TestBlockingLargeSendsCanDeadlock(t *testing.T) {
	// The §3.1 hazard: two ranks blocking-Send large messages to each other
	// before receiving. Rendezvous cannot progress: deadlock.
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		other := 1 - comm.Rank(c)
		c.Send(comm, other, 1, Virtual(1<<20))
		c.Recv(comm, other, 1)
	})
	err := w.Kernel().Run()
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("Run() = %v, want deadlock", err)
	}
}

func TestNonBlockingAvoidsTheDeadlock(t *testing.T) {
	// Same exchange with Isend/Irecv completes — the paper's safe pattern.
	w := testWorld(t, 2, 4, defaultTestOptions())
	ok := 0
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		other := 1 - comm.Rank(c)
		s := c.Isend(comm, other, 1, Virtual(1<<20))
		r := c.Irecv(comm, other, 1)
		c.Waitall([]Request{s, r})
		ok++
	})
	runWorld(t, w)
	if ok != 2 {
		t.Fatalf("completed ranks = %d, want 2", ok)
	}
}

func TestWildcardReceive(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	var sources []int
	w.Launch(3, nil, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			for i := 0; i < 2; i++ {
				_, st := c.Recv(comm, AnySource, AnyTag)
				sources = append(sources, st.Source)
			}
		case 1:
			c.Send(comm, 0, 11, Virtual(8))
		case 2:
			c.Sleep(0.001)
			c.Send(comm, 0, 22, Virtual(8))
		}
	})
	runWorld(t, w)
	if !reflect.DeepEqual(sources, []int{1, 2}) {
		t.Fatalf("sources = %v, want [1 2]", sources)
	}
}

func TestWaitanyReturnsCompletedAndConsumes(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	var idxs []int
	w.Launch(3, nil, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			r1 := c.Irecv(comm, 1, 1)
			r2 := c.Irecv(comm, 2, 1)
			reqs := []Request{r1, r2}
			idxs = append(idxs, c.Waitany(reqs))
			idxs = append(idxs, c.Waitany(reqs))
			idxs = append(idxs, c.Waitany(reqs)) // all consumed: -1
		case 1:
			c.Sleep(0.2)
			c.Send(comm, 0, 1, Virtual(8))
		case 2:
			c.Send(comm, 0, 1, Virtual(8))
		}
	})
	runWorld(t, w)
	if !reflect.DeepEqual(idxs, []int{1, 0, -1}) {
		t.Fatalf("Waitany order = %v, want [1 0 -1]", idxs)
	}
}

func TestTestallNonBlocking(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	var early, late bool
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			r := c.Irecv(comm, 1, 1)
			early = c.Testall([]Request{r})
			c.Sleep(1)
			late = c.Testall([]Request{r})
		case 1:
			c.Sleep(0.1)
			c.Send(comm, 0, 1, Virtual(8))
		}
	})
	runWorld(t, w)
	if early {
		t.Fatal("Testall true before message sent")
	}
	if !late {
		t.Fatal("Testall false after message arrived")
	}
}

func TestPollingWaitOccupiesCore(t *testing.T) {
	// One core per node. Rank 0 waits (polling) while rank 1 on the same
	// node computes: the spinner halves rank 1's speed.
	w := testWorld(t, 2, 1, defaultTestOptions())
	nodeOf := func(r int) int {
		if r == 2 {
			return 1
		}
		return 0
	}
	var computeDone float64
	w.Launch(3, nodeOf, func(c *Ctx, comm *Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Recv(comm, 2, 1) // polls on node 0 until t=1
		case 1:
			c.Compute(1) // diluted by rank 0's polling
			computeDone = c.Now()
		case 2:
			c.Sleep(1)
			c.Send(comm, 0, 1, Virtual(8))
		}
	})
	runWorld(t, w)
	// Rank 1 shares node 0 with the spinner for the first second: rate 0.5
	// for 1s → 0.5 work done; remaining 0.5 at rate 1 → finishes at 1.5.
	if math.Abs(computeDone-1.5) > 1e-6 {
		t.Fatalf("compute done at %g, want 1.5 under polling contention", computeDone)
	}
}

func TestSelfSendWorks(t *testing.T) {
	w := testWorld(t, 1, 4, defaultTestOptions())
	var got int64
	w.Launch(1, nil, func(c *Ctx, comm *Comm) {
		s := c.Isend(comm, 0, 3, Virtual(64))
		r := c.Irecv(comm, 0, 3)
		c.Waitall([]Request{s, r})
		got = r.Payload().Size
	})
	runWorld(t, w)
	if got != 64 {
		t.Fatalf("self-recv size = %d, want 64", got)
	}
}

// BenchmarkLaunch times building a world on an 8x20-core machine and
// launching n ranks on it. The kernel does not run, so no rank starts:
// the time is that of naming and registering the ranks.
func BenchmarkLaunch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := testWorld(b, 8, 20, defaultTestOptions())
				w.Launch(n, nil, func(c *Ctx, comm *Comm) {})
			}
		})
	}
}
