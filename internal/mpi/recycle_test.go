package mpi

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Step kinds of TestRecycledRequestsStayDetached.
const (
	stepAlltoallv = iota // an Alltoallv over the whole communicator
	stepSendrecv         // a Sendrecv with the ranks shift apart
	stepWaitany          // an all-to-all exchange drained by a Waitany loop
)

// recycleOp is one step of TestRecycledRequestsStayDetached.
type recycleOp struct {
	kind  int
	shift int
	delay []float64 // delay[r]: rank r's sleep before the step
	size  [][]int   // size[src][dst] of the step's messages
}

// recyclePayload is the content of the message from src to dst in step op.
func recyclePayload(op, src, dst, size int) Payload {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(op*31 + src*7 + dst*3 + i)
	}
	return Bytes(b)
}

// checkDetached fails t unless the world keeps the request invariant:
// every request an undelivered envelope or a posted queue refers to is
// still pending, and no such request is in a freelist. It reports whether
// some mailbox held an envelope whose eager send had already completed.
func checkDetached(t *testing.T, w *World) (detachedInInbox bool) {
	t.Helper()
	free := map[any]bool{}
	for _, s := range w.msg().sends.free {
		if free[s] {
			t.Fatalf("send request %p is in the freelist twice", s)
		}
		free[s] = true
	}
	for _, r := range w.msg().recvs.free {
		if free[r] {
			t.Fatalf("receive request %p is in the freelist twice", r)
		}
		free[r] = true
	}
	check := func(where string, env *envelope) {
		if s := env.sreq; s != nil && (s.done || free[s]) {
			t.Fatalf("%s envelope from g%d tag %d refers to a done or recycled send request", where, env.sender.gid, env.tag)
		}
		if r := env.rreq; r != nil && (r.done || free[r]) {
			t.Fatalf("%s envelope from g%d tag %d refers to a done or recycled receive request", where, env.sender.gid, env.tag)
		}
	}
	for _, p := range w.procs {
		for _, env := range p.inbox.all() {
			check("mailbox", env)
			if env.sreq == nil {
				detachedInInbox = true
			}
		}
		for _, env := range p.outEnvs {
			check("in-flight", env)
		}
		for _, env := range p.flowQueue.all() {
			check("queued", env)
		}
		for _, r := range p.posted.all() {
			if r.done || free[r] {
				t.Fatalf("g%d posted queue holds a done or recycled receive request", p.gid)
			}
		}
	}
	return detachedInInbox
}

// TestRecycledRequestsStayDetached: ranks enter back-to-back Alltoallvs,
// Sendrecvs and Waitany-drained exchanges on one communicator at staggered
// times, with mostly eager and some rendezvous messages. Eager sends
// finish before their receivers post, so later steps reuse recycled
// requests while earlier steps' envelopes still wait in mailboxes. In a
// Waitany step the caller frees each receive as Waitany returns it, in the
// middle of the loop, and frees every other send while it is still
// pending, so its completion recycles it. After every step the world must
// keep the request invariant (no request completes while a message of its
// own is undelivered, and none is recycled while anything refers to it),
// every received payload must be the one sent, and every step must end at
// the same virtual time as the same exchange built from caller-owned Isend
// and Irecv requests that are never freed.
func TestRecycledRequestsStayDetached(t *testing.T) {
	const ranks, steps = 5, 16
	opts := defaultTestOptions()
	opts.EagerThreshold = 4 << 10
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]recycleOp, steps)
		for i := range ops {
			op := recycleOp{kind: rng.Intn(3), shift: 1 + rng.Intn(ranks-1)}
			op.delay = make([]float64, ranks)
			op.size = make([][]int, ranks)
			for r := range op.size {
				// Most ranks enter at once; a straggler enters after the
				// others' eager messages have arrived.
				d := rng.Float64() * 2e-6
				if rng.Intn(3) == 0 {
					d = 20e-6 + rng.Float64()*100e-6
				}
				op.delay[r] = d
				op.size[r] = make([]int, ranks)
				for q := range op.size[r] {
					op.size[r][q] = 1 + rng.Intn(2<<10)
					if rng.Intn(8) == 0 {
						op.size[r][q] = 8<<10 + rng.Intn(8<<10) // rendezvous
					}
				}
			}
			ops[i] = op
		}

		var ends [2][ranks][steps]float64 // by run (recycled, reference), rank, step
		sawDetached := false
		for run, recycled := range []bool{true, false} {
			w := testWorld(t, 3, 2, opts)
			w.Launch(ranks, func(r int) int { return r % 3 }, func(c *Ctx, comm *Comm) {
				r := comm.Rank(c)
				for i, op := range ops {
					c.Sleep(op.delay[r])
					if op.kind != stepSendrecv {
						send := make([]Payload, ranks)
						for q := range send {
							send[q] = recyclePayload(i, r, q, op.size[r][q])
						}
						var out []Payload
						switch {
						case op.kind == stepWaitany:
							out = waitanyExchange(c, comm, i, send, recycled)
						case recycled:
							out = c.Alltoallv(comm, send)
						default:
							out = refAlltoallv(c, comm, i, send)
						}
						for q, got := range out {
							want := recyclePayload(i, q, r, op.size[q][r])
							if !bytes.Equal(got.Data, want.Data) {
								t.Errorf("seed %d step %d: rank %d got the wrong all-to-all payload from %d", seed, i, r, q)
							}
						}
					} else {
						dst, src := (r+op.shift)%ranks, (r-op.shift+ranks)%ranks
						pl := recyclePayload(i, r, dst, op.size[r][dst])
						var got Payload
						var st Status
						if recycled {
							got, st = c.Sendrecv(comm, dst, i, pl, src, i)
						} else {
							s, rr := c.Isend(comm, dst, i, pl), c.Irecv(comm, src, i)
							c.Waitall([]Request{s, rr})
							got, st = rr.Payload(), rr.s.op.(*recvReq).status
						}
						want := recyclePayload(i, src, r, op.size[src][r])
						if !bytes.Equal(got.Data, want.Data) || st != (Status{Source: src, Tag: i, Size: want.Size}) {
							t.Errorf("seed %d step %d: rank %d got the wrong Sendrecv message %+v from %d", seed, i, r, st, src)
						}
					}
					ends[run][r][i] = c.Now()
					if recycled && checkDetached(t, w) {
						sawDetached = true
					}
				}
			})
			runWorld(t, w)
			if recycled {
				if n, sent := len(w.msg().sends.free), steps*ranks*ranks; n >= sent {
					t.Errorf("seed %d: %d send requests made for %d sends: none was reused", seed, n, sent)
				}
			}
		}
		if !sawDetached {
			t.Errorf("seed %d: no mailbox ever held a completed eager send, so no request was reused under it", seed)
		}
		for r := range ends[0] {
			for i, end := range ends[0][r] {
				if ref := ends[1][r][i]; end != ref {
					t.Errorf("seed %d: rank %d ended step %d at %g, %g with caller-owned requests", seed, r, i, end, ref)
				}
			}
		}
	}
}

// refAlltoallv is Alltoallv's scattered exchange built from caller-owned
// requests, with the step index as its tag: the same receives, the same
// staggered sends and one wait, as Ialltoallv and its Done scan make them.
func refAlltoallv(c *Ctx, comm *Comm, tag int, send []Payload) []Payload {
	n := len(send)
	reqs := make([]Request, 2*n) // sends, then receives
	recvs := make([]Request, n)
	for q := range recvs {
		recvs[q] = c.Irecv(comm, q, tag)
		reqs[n+q] = recvs[q]
	}
	r := comm.Rank(c)
	for s := 0; s < n; s++ {
		dst := (r + s) % n
		reqs[s] = c.Isend(comm, dst, tag, send[dst])
	}
	c.Waitall(reqs)
	out := make([]Payload, n)
	for q, rr := range recvs {
		out[q] = rr.Payload()
	}
	return out
}

// waitanyExchange is an all-to-all exchange of caller-owned requests, with
// the step index as its tag, whose receives a Waitany loop drains. It
// waits for every odd-numbered send. With free, it frees each receive as
// Waitany returns it and each even-numbered send at once, still pending;
// without, it drops the even-numbered sends unfreed.
func waitanyExchange(c *Ctx, comm *Comm, tag int, send []Payload, free bool) []Payload {
	n := len(send)
	recvs := make([]Request, n)
	for q := range recvs {
		recvs[q] = c.Irecv(comm, q, tag)
	}
	r := comm.Rank(c)
	var sends []Request
	for s := 0; s < n; s++ {
		dst := (r + s) % n
		req := c.Isend(comm, dst, tag, send[dst])
		switch {
		case s%2 == 1:
			sends = append(sends, req)
		case free:
			c.Free(req)
		}
	}
	out := make([]Payload, n)
	for {
		q := c.Waitany(recvs)
		if q < 0 {
			break
		}
		out[q] = recvs[q].Payload()
		if free {
			c.Free(recvs[q])
			recvs[q] = Request{}
		}
	}
	c.Waitall(sends)
	if free {
		for _, s := range sends {
			c.Free(s)
		}
	}
	return out
}

// maxAlltoallvAllocs bounds what one rank's steady-state Alltoallv
// allocates per call: the request and the result. Per-peer requests, their
// lists, envelopes, flows, Wait conditions and polling loads are recycled
// or belong to the context.
const maxAlltoallvAllocs = 2

// TestAlltoallvAllocations: once warm, an Alltoallv over P ranks allocates
// O(1) per call and rank, whatever P.
func TestAlltoallvAllocations(t *testing.T) {
	for _, ranks := range []int{4, 16} {
		const runs = 50
		w := testWorld(t, 2, 4, DefaultOptions())
		var allocs float64
		w.Launch(ranks, nil, func(c *Ctx, comm *Comm) {
			send := make([]Payload, ranks)
			for i := range send {
				send[i] = Virtual(1 << 10)
			}
			for i := 0; i < 3; i++ { // warm the freelists
				c.Alltoallv(comm, send)
			}
			if comm.Rank(c) != 0 {
				for i := 0; i <= runs; i++ { // AllocsPerRun adds a warm-up call
					c.Alltoallv(comm, send)
				}
				return
			}
			allocs = testing.AllocsPerRun(runs, func() { c.Alltoallv(comm, send) })
		})
		runWorld(t, w)
		perRank := allocs / float64(ranks)
		t.Logf("Alltoallv over %d ranks: %g allocs per call and rank", ranks, perRank)
		if perRank > maxAlltoallvAllocs {
			t.Errorf("Alltoallv over %d ranks: %g allocs per call and rank, want at most %d", ranks, perRank, maxAlltoallvAllocs)
		}
	}
}

// BenchmarkAlltoallv times one Alltoallv moving n messages, a dense
// exchange over sqrt(n) ranks (the shape of perfbench's mpi.alltoallv_us
// probe); time and allocations are per collective, summed over the ranks.
func BenchmarkAlltoallv(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ranks := 1
			for (ranks+1)*(ranks+1) <= n {
				ranks++
			}
			w := testWorld(b, (ranks+19)/20, 20, DefaultOptions())
			w.Launch(ranks, nil, func(c *Ctx, comm *Comm) {
				send := make([]Payload, ranks)
				for i := range send {
					send[i] = Virtual(1 << 10)
				}
				c.Alltoallv(comm, send)
				if comm.Rank(c) == 0 {
					b.ReportAllocs()
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					c.Alltoallv(comm, send)
				}
				if comm.Rank(c) == 0 {
					b.StopTimer()
				}
			})
			if err := w.Kernel().Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
