package mpi

import (
	"fmt"
	"slices"
	"testing"
)

// panicText runs f and returns what it panicked with, or "" if it did not.
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestStaleRequestPanics: a request handle goes stale once Free recycles
// the request, and every use of it panics and names the request, even
// after Irecv has reused it; the reusing handle works on.
func TestStaleRequestPanics(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 0 {
			c.Send(comm, 1, 0, Bytes([]byte{1}))
			c.Send(comm, 1, 1, Bytes([]byte{2}))
			return
		}
		old := c.Irecv(comm, 0, 0)
		c.Wait(old)
		c.Free(old)
		reused := c.Irecv(comm, 0, 1)
		if reused.s != old.s {
			t.Fatal("Irecv did not reuse the freed request")
		}
		for _, use := range []struct {
			name string
			f    func()
		}{
			{"Done", func() { old.Done() }},
			{"Payload", func() { old.Payload() }},
			{"Wait", func() { c.Wait(old) }},
			{"Free", func() { c.Free(old) }},
		} {
			msg := panicText(use.f)
			want := fmt.Sprintf("mpi: %s on a freed Irecv request (handle generation %d, request now at %d)", use.name, old.gen, reused.gen)
			if msg != want {
				t.Errorf("%s on a stale handle: panic %q, want %q", use.name, msg, want)
			}
		}
		c.Wait(reused)
		if got := reused.Payload().Data; !slices.Equal(got, []byte{2}) {
			t.Errorf("reused request received %v, want [2]", got)
		}
		c.Free(reused)
	})
	runWorld(t, w)
}

// TestNullRequest: the zero Request reads as done with an empty payload,
// Waitall passes it, Waitany skips it, and freeing it does nothing.
func TestNullRequest(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
		if comm.Rank(c) == 0 {
			c.Send(comm, 1, 0, Virtual(8))
			return
		}
		var null Request
		if !null.IsNull() || !null.Done() || null.Payload().Size != 0 {
			t.Error("the null request is not a done request with an empty payload")
		}
		c.Free(null)
		c.Wait(null)
		rs := []Request{null, c.Irecv(comm, 0, 0), null}
		c.Waitall(rs[:1])
		if idx := c.Waitany(rs); idx != 1 {
			t.Errorf("Waitany returned %d, want 1 (the only non-null request)", idx)
		}
		if idx := c.Waitany(rs); idx != -1 {
			t.Errorf("Waitany over consumed and null requests returned %d, want -1", idx)
		}
	})
	runWorld(t, w)
}

// TestFreeWhilePendingRecyclesAtCompletion: Free on a pending Irecv or Get
// makes the handle stale at once but leaves the request out of the
// freelist while the message or the read is in flight; its completion
// recycles it. The freed receive still consumes the message it matches.
func TestFreeWhilePendingRecyclesAtCompletion(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
		var local Payload
		if comm.Rank(c) == 0 {
			local = Virtual(1 << 20)
		}
		win := c.WinCreate(comm, local)
		if comm.Rank(c) == 0 {
			c.Sleep(1)
			c.Send(comm, 1, 0, Virtual(8)) // matched by the freed receive
			c.Send(comm, 1, 0, Virtual(8))
			c.Fence(win)
			return
		}
		rc := c.proc.w.msg()
		r := c.Irecv(comm, 0, 0)
		g := c.Get(win, 0, 0, 1<<20)
		c.Free(r)
		c.Free(g)
		if panicText(func() { r.Done() }) == "" || panicText(func() { g.Done() }) == "" {
			t.Error("a handle freed while pending is still usable")
		}
		if slices.Contains(rc.recvs.free, r.s.op.(*recvReq)) || slices.Contains(rc.gets.free, g.s.op.(*rmaReq)) {
			t.Fatal("a pending request was recycled when it was freed")
		}
		c.Sleep(0.5) // the Get lands; the message is not sent yet
		if !slices.Contains(rc.gets.free, g.s.op.(*rmaReq)) {
			t.Error("a freed Get was not recycled when its data landed")
		}
		if slices.Contains(rc.recvs.free, r.s.op.(*recvReq)) {
			t.Error("a freed receive was recycled before its message arrived")
		}
		c.Sleep(1)
		if !slices.Contains(rc.recvs.free, r.s.op.(*recvReq)) {
			t.Error("a freed receive was not recycled when its message arrived")
		}
		next := c.Irecv(comm, 0, 0)
		c.Wait(next)
		if c.Now() < 1 {
			t.Errorf("the next receive completed at %g: it took the freed receive's message", c.Now())
		}
		c.Free(next)
		c.Fence(win)
	})
	runWorld(t, w)
}

// BenchmarkGetWave times one target pulling n 1 KiB Gets from one exposer
// in waves of 16, waiting for and freeing each wave before the next, the
// way an RMA redistribution pulls under a memory ceiling; the time and
// allocations are per pull of all n.
func BenchmarkGetWave(b *testing.B) {
	const wave, size = 16, 1 << 10
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := testWorld(b, 2, 4, defaultTestOptions())
			w.Launch(2, func(r int) int { return r }, func(c *Ctx, comm *Comm) {
				var local Payload
				if comm.Rank(c) == 0 {
					local = Virtual(wave * size)
				}
				win := c.WinCreate(comm, local)
				if comm.Rank(c) == 1 {
					reqs := make([]Request, 0, wave)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for k := 0; k < n; k++ {
							off := int64(k%wave) * size
							reqs = append(reqs, c.Get(win, 0, off, off+size))
							if len(reqs) == wave || k == n-1 {
								c.Waitall(reqs)
								for _, r := range reqs {
									c.Free(r)
								}
								reqs = reqs[:0]
							}
						}
					}
					b.StopTimer()
				}
				c.Fence(win)
			})
			if err := w.Kernel().Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
