package mpi

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestSpawnCreatesChildrenWithParentComm(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	var childRanks []int
	var parentRemote int
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		inter := c.Spawn(comm, 3, nil, func(child *Ctx, _ *Comm) {
			pc := child.Proc().Parent()
			if pc == nil {
				t.Error("child Parent() = nil")
				return
			}
			childRanks = append(childRanks, pc.Rank(child))
		})
		if comm.Rank(c) == 0 {
			parentRemote = inter.RemoteSize()
		}
	})
	runWorld(t, w)
	sort.Ints(childRanks)
	if !reflect.DeepEqual(childRanks, []int{0, 1, 2}) {
		t.Fatalf("child ranks = %v, want [0 1 2]", childRanks)
	}
	if parentRemote != 3 {
		t.Fatalf("parent view RemoteSize = %d, want 3", parentRemote)
	}
}

func TestSpawnCostOnCriticalPath(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	cost := w.Machine().SpawnCost(4)
	var childStart float64 = -1
	w.Launch(1, nil, func(c *Ctx, comm *Comm) {
		c.Spawn(comm, 4, nil, func(child *Ctx, _ *Comm) {
			if pc := child.Proc().Parent(); pc.Rank(child) == 0 {
				childStart = child.Now()
			}
		})
	})
	runWorld(t, w)
	if childStart < cost {
		t.Fatalf("children started at %g, want >= spawn cost %g", childStart, cost)
	}
}

func TestSpawnPlacementRespected(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	nodes := make(map[int]int)
	w.Launch(1, nil, func(c *Ctx, comm *Comm) {
		c.Spawn(comm, 4, func(r int) int { return r % 2 }, func(child *Ctx, _ *Comm) {
			pc := child.Proc().Parent()
			nodes[pc.Rank(child)] = child.Proc().node
		})
	})
	runWorld(t, w)
	for r, n := range nodes {
		if n != r%2 {
			t.Fatalf("child %d on node %d, want %d", r, n, r%2)
		}
	}
}

func TestSendAcrossIntercommBothWays(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	var fromParent, fromChild float64
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		inter := c.Spawn(comm, 2, nil, func(child *Ctx, _ *Comm) {
			pc := child.Proc().Parent()
			switch pc.Rank(child) {
			case 0:
				pl, _ := child.Recv(pc, 0, 9)
				fromParent = pl.AsFloat64s()[0]
				child.Send(pc, 0, 10, Float64s([]float64{77}))
			}
		})
		if comm.Rank(c) == 0 {
			c.Send(inter, 0, 9, Float64s([]float64{42}))
			pl, _ := c.Recv(inter, 0, 10)
			fromChild = pl.AsFloat64s()[0]
		}
	})
	runWorld(t, w)
	if fromParent != 42 {
		t.Fatalf("child received %g, want 42", fromParent)
	}
	if fromChild != 77 {
		t.Fatalf("parent received %g, want 77", fromChild)
	}
}

func TestMergeOrdersLowGroupFirst(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	ns, nt := 2, 3
	mergedRanks := map[string][]int{}
	w.Launch(ns, nil, func(c *Ctx, comm *Comm) {
		inter := c.Spawn(comm, nt, nil, func(child *Ctx, _ *Comm) {
			pc := child.Proc().Parent()
			m := pc.Merge(child, true) // children are the high group
			mergedRanks["child"] = append(mergedRanks["child"], m.Rank(child))
		})
		m := inter.Merge(c, false) // parents low
		mergedRanks["parent"] = append(mergedRanks["parent"], m.Rank(c))
		if m.Size() != ns+nt {
			t.Errorf("merged size = %d, want %d", m.Size(), ns+nt)
		}
	})
	runWorld(t, w)
	sort.Ints(mergedRanks["parent"])
	sort.Ints(mergedRanks["child"])
	if !reflect.DeepEqual(mergedRanks["parent"], []int{0, 1}) {
		t.Fatalf("parent merged ranks = %v, want [0 1]", mergedRanks["parent"])
	}
	if !reflect.DeepEqual(mergedRanks["child"], []int{2, 3, 4}) {
		t.Fatalf("child merged ranks = %v, want [2 3 4]", mergedRanks["child"])
	}
}

func TestMergedCommIsUsableForCollectives(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	ns, nt := 2, 2
	total := make(chan float64, ns+nt)
	sum := func(c *Ctx, m *Comm) {
		out := c.Allreduce(m, Float64s([]float64{float64(m.Rank(c))}), OpSumFloat64)
		total <- out.AsFloat64s()[0]
	}
	w.Launch(ns, nil, func(c *Ctx, comm *Comm) {
		inter := c.Spawn(comm, nt, nil, func(child *Ctx, _ *Comm) {
			pc := child.Proc().Parent()
			sum(child, pc.Merge(child, true))
		})
		sum(c, inter.Merge(c, false))
	})
	runWorld(t, w)
	close(total)
	want := 6.0 // 0+1+2+3
	n := 0
	for v := range total {
		n++
		if v != want {
			t.Fatalf("allreduce on merged comm = %g, want %g", v, want)
		}
	}
	if n != ns+nt {
		t.Fatalf("%d ranks reported, want %d", n, ns+nt)
	}
}

func TestSubCommunicator(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p, keep := 4, 2
	var got []float64
	subs := make([]*Comm, p)
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		sub := comm.Sub(c, keep)
		subs[r] = sub
		if sub.Size() != keep {
			t.Errorf("rank %d: sub comm size %d, want %d", r, sub.Size(), keep)
		}
		if r < keep {
			if sub.Rank(c) != r {
				t.Errorf("rank %d has rank %d in the sub comm", r, sub.Rank(c))
			}
			out := c.Allreduce(sub, Float64s([]float64{float64(r + 1)}), OpSumFloat64)
			if sub.Rank(c) == 0 {
				got = out.AsFloat64s()
			}
		} else if sub.Rank(c) != -1 {
			t.Errorf("rank %d unexpectedly a member of sub comm", r)
		}
	})
	runWorld(t, w)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("sub allreduce = %v, want [3]", got)
	}
	for r, s := range subs {
		if s != subs[0] {
			t.Fatalf("rank %d got sub comm %p, rank 0 got %p: every member must share one", r, s, subs[0])
		}
	}
}

func TestDupSeparatesMatching(t *testing.T) {
	// A receive on the dup must not match a send on the original.
	w := testWorld(t, 2, 8, defaultTestOptions())
	var gotOriginal, gotDup int64
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		dup := comm.Dup(c)
		switch comm.Rank(c) {
		case 0:
			c.Send(comm, 1, 5, Virtual(111))
			c.Send(dup, 1, 5, Virtual(222))
		case 1:
			// Post the dup receive first; it must wait for the dup send even
			// though an original-comm message with the same tag arrives.
			rd := c.Irecv(dup, 0, 5)
			ro := c.Irecv(comm, 0, 5)
			c.Waitall([]Request{rd, ro})
			gotDup = rd.Payload().Size
			gotOriginal = ro.Payload().Size
		}
	})
	runWorld(t, w)
	if gotDup != 222 || gotOriginal != 111 {
		t.Fatalf("dup=%d original=%d, want 222/111", gotDup, gotOriginal)
	}
}

// TestRepeatedDups checks that each generation of a collective derivation
// on one communicator yields a fresh communicator that every member shares.
func TestRepeatedDups(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p, gens := 4, 3
	dups := make([][]*Comm, gens)
	for g := range dups {
		dups[g] = make([]*Comm, p)
	}
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		for g := range dups {
			dups[g][comm.Rank(c)] = comm.Dup(c)
		}
	})
	runWorld(t, w)
	for g, ds := range dups {
		for r, d := range ds {
			if d != ds[0] {
				t.Fatalf("generation %d: rank %d got dup %p, rank 0 got %p", g, r, d, ds[0])
			}
		}
		if g > 0 && ds[0] == dups[g-1][0] {
			t.Fatalf("generation %d returned generation %d's dup", g, g-1)
		}
	}
}

func TestRepeatedSpawnsOnSameComm(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	spawned := 0
	w.Launch(2, nil, func(c *Ctx, comm *Comm) {
		for i := 0; i < 3; i++ {
			inter := c.Spawn(comm, 1, nil, func(child *Ctx, _ *Comm) {
				spawned++
			})
			if inter.RemoteSize() != 1 {
				t.Errorf("spawn %d: RemoteSize = %d", i, inter.RemoteSize())
			}
		}
	})
	runWorld(t, w)
	if spawned != 3 {
		t.Fatalf("spawned = %d, want 3", spawned)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []string {
		w := testWorld(t, 2, 4, defaultTestOptions())
		var trace []string
		w.Launch(4, nil, func(c *Ctx, comm *Comm) {
			r := comm.Rank(c)
			for i := 0; i < 3; i++ {
				out := c.Allreduce(comm, Float64s([]float64{float64(r)}), OpSumFloat64)
				trace = append(trace, fmt.Sprintf("r%d i%d t%.12g v%g", r, i, c.Now(), out.AsFloat64s()[0]))
				c.Compute(0.001 * float64(r+1))
			}
		})
		if err := w.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("traces differ:\n%v\nvs\n%v", a, b)
	}
}
