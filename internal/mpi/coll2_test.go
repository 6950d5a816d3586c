package mpi

import "testing"

func TestSplitByParity(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p := 6
	sizes := make([]int, p)
	ranks := make([]int, p)
	sums := make([]float64, p)
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		nc := c.Split(comm, r%2, r)
		sizes[r] = nc.Size()
		ranks[r] = nc.Rank(c)
		out := c.Allreduce(nc, Float64s([]float64{float64(r)}), OpSumFloat64)
		sums[r] = out.AsFloat64s()[0]
	})
	runWorld(t, w)
	for r := 0; r < p; r++ {
		if sizes[r] != 3 {
			t.Fatalf("rank %d group size = %d, want 3", r, sizes[r])
		}
		if want := r / 2; ranks[r] != want {
			t.Fatalf("rank %d new rank = %d, want %d", r, ranks[r], want)
		}
		want := 6.0 // evens 0+2+4
		if r%2 == 1 {
			want = 9 // odds 1+3+5
		}
		if sums[r] != want {
			t.Fatalf("rank %d group sum = %g, want %g", r, sums[r], want)
		}
	}
}

func TestSplitKeyReordersRanks(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p := 4
	newRanks := make([]int, p)
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		nc := c.Split(comm, 0, -r) // reverse order
		newRanks[r] = nc.Rank(c)
	})
	runWorld(t, w)
	for r := 0; r < p; r++ {
		if want := p - 1 - r; newRanks[r] != want {
			t.Fatalf("old rank %d -> new %d, want %d", r, newRanks[r], want)
		}
	}
}

func TestSplitUndefinedColor(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p := 3
	var nils, nonNils int
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		color := 0
		if r == 2 {
			color = -1 // MPI_UNDEFINED
		}
		nc := c.Split(comm, color, 0)
		if nc == nil {
			nils++
		} else {
			nonNils++
			if nc.Size() != 2 {
				t.Errorf("group size = %d, want 2", nc.Size())
			}
		}
	})
	runWorld(t, w)
	if nils != 1 || nonNils != 2 {
		t.Fatalf("nils=%d nonNils=%d, want 1/2", nils, nonNils)
	}
}

func TestRepeatedSplits(t *testing.T) {
	w := testWorld(t, 2, 8, defaultTestOptions())
	p := 4
	w.Launch(p, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		for gen := 0; gen < 3; gen++ {
			nc := c.Split(comm, r%2, r)
			if nc.Size() != 2 {
				t.Errorf("gen %d: size = %d", gen, nc.Size())
			}
		}
	})
	runWorld(t, w)
}
