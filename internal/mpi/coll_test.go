package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"
)

func TestBarrierSynchronizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := testWorld(t, 2, 8, defaultTestOptions())
			after := make([]float64, p)
			w.Launch(p, nil, func(c *Ctx, comm *Comm) {
				r := comm.Rank(c)
				c.Sleep(float64(r) * 0.1) // stagger arrivals
				c.Barrier(comm)
				after[r] = c.Now()
			})
			runWorld(t, w)
			latest := float64(p-1) * 0.1
			for r, at := range after {
				if at < latest {
					t.Fatalf("rank %d left barrier at %g before last arrival %g", r, at, latest)
				}
			}
		})
	}
}

func TestBcastDeliversToAll(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < p; root += 2 {
			t.Run(fmt.Sprintf("p=%d/root=%d", p, root), func(t *testing.T) {
				w := testWorld(t, 2, 8, defaultTestOptions())
				want := []float64{3.14, 2.71}
				got := make([][]float64, p)
				w.Launch(p, nil, func(c *Ctx, comm *Comm) {
					r := comm.Rank(c)
					var in Payload
					if r == root {
						in = Float64s(want)
					} else {
						in = Virtual(16)
					}
					out := c.Bcast(comm, root, in)
					got[r] = out.AsFloat64s()
				})
				runWorld(t, w)
				for r := range got {
					if !reflect.DeepEqual(got[r], want) {
						t.Fatalf("rank %d got %v, want %v", r, got[r], want)
					}
				}
			})
		}
	}
}

func TestReduceSumsAtRoot(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 6, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := testWorld(t, 2, 8, defaultTestOptions())
			var got []float64
			w.Launch(p, nil, func(c *Ctx, comm *Comm) {
				r := comm.Rank(c)
				in := Float64s([]float64{float64(r), 1})
				out := c.Reduce(comm, 0, in, OpSumFloat64)
				if r == 0 {
					got = out.AsFloat64s()
				}
			})
			runWorld(t, w)
			wantSum := float64(p*(p-1)) / 2
			if math.Abs(got[0]-wantSum) > 1e-12 || math.Abs(got[1]-float64(p)) > 1e-12 {
				t.Fatalf("reduce got %v, want [%g %d]", got, wantSum, p)
			}
		})
	}
}

func TestAllreduceEveryRankGetsSum(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := testWorld(t, 2, 8, defaultTestOptions())
			got := make([]float64, p)
			w.Launch(p, nil, func(c *Ctx, comm *Comm) {
				r := comm.Rank(c)
				out := c.Allreduce(comm, Float64s([]float64{float64(r + 1)}), OpSumFloat64)
				got[r] = out.AsFloat64s()[0]
			})
			runWorld(t, w)
			want := float64(p*(p+1)) / 2
			for r, g := range got {
				if math.Abs(g-want) > 1e-12 {
					t.Fatalf("rank %d allreduce = %g, want %g", r, g, want)
				}
			}
		})
	}
}

// opMaxFloat64 keeps the elementwise maximum: a reduction other than the
// sum, so Allreduce is checked with an order-sensitive operator too.
func opMaxFloat64(dst, src []byte) {
	a, b := Payload{Data: dst}.AsFloat64s(), Payload{Data: src}.AsFloat64s()
	for i := range a {
		if b[i] > a[i] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(b[i]))
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p := 5
	got := make([]float64, p)
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		out := c.Allreduce(comm, Float64s([]float64{float64((r * 3) % p)}), opMaxFloat64)
		got[r] = out.AsFloat64s()[0]
	})
	runWorld(t, w)
	for r, g := range got {
		if g != float64(p-1) {
			t.Fatalf("rank %d max = %g, want %d", r, g, p-1)
		}
	}
}

func TestAllgathervCollectsAllBlocks(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6, 8} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := testWorld(t, 2, 8, defaultTestOptions())
			got := make([][][]float64, p)
			w.Launch(p, nil, func(c *Ctx, comm *Comm) {
				r := comm.Rank(c)
				// Variable-size block: rank r contributes r+1 values.
				mine := make([]float64, r+1)
				for i := range mine {
					mine[i] = float64(r*100 + i)
				}
				blocks := c.Allgatherv(comm, Float64s(mine))
				for _, b := range blocks {
					got[r] = append(got[r], b.AsFloat64s())
				}
			})
			runWorld(t, w)
			for r := 0; r < p; r++ {
				if len(got[r]) != p {
					t.Fatalf("rank %d gathered %d blocks, want %d", r, len(got[r]), p)
				}
				for q := 0; q < p; q++ {
					if len(got[r][q]) != q+1 {
						t.Fatalf("rank %d block %d has %d values, want %d", r, q, len(got[r][q]), q+1)
					}
					for i, v := range got[r][q] {
						if v != float64(q*100+i) {
							t.Fatalf("rank %d block %d[%d] = %g, want %d", r, q, i, v, q*100+i)
						}
					}
				}
			}
		})
	}
}

func TestAlltoallvIntraExchangesCorrectly(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			w := testWorld(t, 2, 8, defaultTestOptions())
			got := make([][]float64, p)
			w.Launch(p, nil, func(c *Ctx, comm *Comm) {
				r := comm.Rank(c)
				send := make([]Payload, p)
				for i := range send {
					send[i] = Float64s([]float64{float64(r*10 + i)})
				}
				out := c.Alltoallv(comm, send)
				for _, pl := range out {
					got[r] = append(got[r], pl.AsFloat64s()...)
				}
			})
			runWorld(t, w)
			for r := 0; r < p; r++ {
				for q := 0; q < p; q++ {
					if got[r][q] != float64(q*10+r) {
						t.Fatalf("rank %d recv[%d] = %g, want %d", r, q, got[r][q], q*10+r)
					}
				}
			}
		})
	}
}

// spawnPair launches ns parents that spawn nt children, giving the test fn
// both sides' views. children report through the shared slices.
func TestAlltoallvInterCommExchanges(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	ns, nt := 3, 2
	recvAtChild := make([][]float64, nt)
	w.Launch(ns, nil, func(c *Ctx, comm *Comm) {
		inter := c.Spawn(comm, nt, nil, func(child *Ctx, _ *Comm) {
			pc := child.Proc().Parent()
			r := pc.Rank(child)
			send := make([]Payload, pc.RemoteSize())
			for i := range send {
				send[i] = Float64s([]float64{float64(1000 + r*10 + i)})
			}
			out := child.Alltoallv(pc, send)
			for _, pl := range out {
				recvAtChild[r] = append(recvAtChild[r], pl.AsFloat64s()...)
			}
		})
		r := inter.Rank(c)
		send := make([]Payload, inter.RemoteSize())
		for i := range send {
			send[i] = Float64s([]float64{float64(r*10 + i)})
		}
		c.Alltoallv(inter, send)
	})
	runWorld(t, w)
	for childRank := 0; childRank < nt; childRank++ {
		if len(recvAtChild[childRank]) != ns {
			t.Fatalf("child %d received %d payloads, want %d", childRank, len(recvAtChild[childRank]), ns)
		}
		for src := 0; src < ns; src++ {
			want := float64(src*10 + childRank)
			if recvAtChild[childRank][src] != want {
				t.Fatalf("child %d from %d = %g, want %g",
					childRank, src, recvAtChild[childRank][src], want)
			}
		}
	}
}

func TestIalltoallvOverlapsAndMatchesBlocking(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p := 4
	got := make([][]float64, p)
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		send := make([]Payload, p)
		for i := range send {
			send[i] = Float64s([]float64{float64(r + 100*i)})
		}
		req := c.Ialltoallv(comm, send)
		c.Compute(0.01) // overlap something
		c.Wait(req)
		for _, pl := range req.Result() {
			got[r] = append(got[r], pl.AsFloat64s()...)
		}
	})
	runWorld(t, w)
	for r := 0; r < p; r++ {
		for q := 0; q < p; q++ {
			if got[r][q] != float64(q+100*r) {
				t.Fatalf("rank %d recv[%d] = %g, want %d", r, q, got[r][q], q+100*r)
			}
		}
	}
}

func TestAlltoallFixedSize(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p := 3
	counts := make([]int, p)
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		out := c.Alltoall(comm, Virtual(8), p)
		counts[comm.Rank(c)] = len(out)
	})
	runWorld(t, w)
	for r, n := range counts {
		if n != p {
			t.Fatalf("rank %d got %d payloads, want %d", r, n, p)
		}
	}
}

func TestPairwiseInterPaysSchedPenalty(t *testing.T) {
	// With a scheduling quantum and oversubscription, the blocking
	// inter-communicator Alltoallv must be slower than the non-blocking one
	// — the §4.4.2 anomaly, reversed: COLS > COLA.
	run := func(blocking bool) float64 {
		opts := defaultTestOptions()
		opts.SchedQuantum = 10e-3
		w := testWorld(t, 1, 2, opts) // 2 cores; 4+4 procs → oversubscribed
		ns, nt := 4, 4
		var done float64
		w.Launch(ns, nil, func(c *Ctx, comm *Comm) {
			inter := c.Spawn(comm, nt, nil, func(child *Ctx, _ *Comm) {
				pc := child.Proc().Parent()
				send := make([]Payload, pc.RemoteSize())
				for i := range send {
					send[i] = Virtual(1 << 10)
				}
				if blocking {
					child.Alltoallv(pc, send)
				} else {
					child.Wait(child.Ialltoallv(pc, send))
				}
			})
			send := make([]Payload, inter.RemoteSize())
			for i := range send {
				send[i] = Virtual(1 << 10)
			}
			if blocking {
				c.Alltoallv(inter, send)
			} else {
				c.Wait(c.Ialltoallv(inter, send))
			}
			if t := c.Now(); t > done {
				done = t
			}
		})
		if err := w.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		return done
	}
	tBlocking := run(true)
	tNonBlocking := run(false)
	if tBlocking <= tNonBlocking {
		t.Fatalf("pairwise blocking (%g) should exceed non-blocking (%g) under oversubscription",
			tBlocking, tNonBlocking)
	}
}
