// Malleable heat diffusion: an explicit 1-D stencil code with per-step halo
// exchanges, shrunk from 6 to 3 processes mid-run with the Baseline method
// and point-to-point redistribution. Unlike the CG example, the entire
// field is variable data, so the redistribution happens at the halt — and
// the simulated result is verified step-for-step against a sequential
// reference.
//
//	go run ./examples/heat
package main

import (
	"fmt"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/partition"
	"repro/internal/sim"
)

const (
	n          = 4096 // grid points
	steps      = 200  // time steps
	reconfigAt = 80   // malleability checkpoint
	ns, nt     = 6, 3
	alpha      = 0.24 // diffusion number (stable: < 0.5)
)

// sequential computes the reference solution.
func sequential() []float64 {
	u := initial()
	next := make([]float64, n)
	for s := 0; s < steps; s++ {
		stepField(u, next, leftBoundary(), rightBoundary())
		u, next = next, u
	}
	return u
}

func initial() []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = math.Exp(-math.Pow(float64(i)-n/2, 2) / (n / 8))
	}
	return u
}

func leftBoundary() float64  { return 0 }
func rightBoundary() float64 { return 0 }

// stepField advances one explicit Euler step on the interior [0, len(u)),
// with the given halo values outside.
func stepField(u, next []float64, left, right float64) {
	for i := range u {
		um := left
		if i > 0 {
			um = u[i-1]
		}
		up := right
		if i < len(u)-1 {
			up = u[i+1]
		}
		next[i] = u[i] + alpha*(um-2*u[i]+up)
	}
}

func main() {
	fmt.Printf("heat equation: %d points, %d steps, shrinking %d -> %d at step %d (Baseline P2PS)\n",
		n, steps, ns, nt, reconfigAt)

	ref := sequential()

	kernel := sim.NewKernel()
	machine := cluster.New(kernel, cluster.Config{
		Nodes: 2, CoresPerNode: 4,
		Net:       netmodel.Ethernet10G(),
		SpawnBase: 10e-3, SpawnPerProc: 2e-3,
		Seed: 1,
	})
	world := mpi.NewWorld(machine, mpi.DefaultOptions())

	variant := core.Config{Spawn: core.Baseline, Comm: core.P2P, Overlap: core.Sync}
	result := make([]float64, n)
	finished := 0

	// run advances the field from the given step on comm, reconfiguring at
	// the checkpoint; spawned targets call it again via the continuation
	// with reconfigured set, so they do not re-trigger the checkpoint.
	var run func(c *mpi.Ctx, comm *mpi.Comm, u []float64, lo, hi int64, step int, reconfigured bool)
	run = func(c *mpi.Ctx, comm *mpi.Comm, u []float64, lo, hi int64, step int, reconfigured bool) {
		p := comm.Size()
		rank := comm.Rank(c)
		next := make([]float64, len(u))
		for ; step < steps; step++ {
			if step == reconfigAt && !reconfigured {
				store := core.NewStore()
				store.Register(core.NewDenseFloat64("u", n, false, lo, u))
				recon := core.StartReconfig(c, variant, comm, nt, store,
					func() *core.Store {
						st := core.NewStore()
						st.Register(core.NewDenseBytes("u", n, 8, false, 0, 0, nil))
						return st
					},
					func(ctx *mpi.Ctx, newComm *mpi.Comm, st *core.Store) {
						item := st.Item("u").(*core.DenseItem)
						nlo, nhi := item.Block()
						run(ctx, newComm, item.Float64s(), nlo, nhi, reconfigAt, true)
					})
				recon.Wait(c)
				return // Baseline: every source finalizes after the redistribution
			}

			// Halo exchange with neighbors, then the local stencil step.
			left, right := leftBoundary(), rightBoundary()
			var reqs []mpi.Request
			var lreq, rreq mpi.Request // null unless there is a neighbor
			if rank > 0 {
				reqs = append(reqs, c.Isend(comm, rank-1, 1, mpi.Float64s(u[:1])))
				lreq = c.Irecv(comm, rank-1, 2)
				reqs = append(reqs, lreq)
			}
			if rank < p-1 {
				reqs = append(reqs, c.Isend(comm, rank+1, 2, mpi.Float64s(u[len(u)-1:])))
				rreq = c.Irecv(comm, rank+1, 1)
				reqs = append(reqs, rreq)
			}
			c.Waitall(reqs)
			if !lreq.IsNull() {
				left = lreq.Payload().AsFloat64s()[0]
			}
			if !rreq.IsNull() {
				right = rreq.Payload().AsFloat64s()[0]
			}
			for _, r := range reqs {
				c.Free(r) // back to the world's pool for the next step
			}
			stepField(u, next, left, right)
			u, next = next, u
			c.Compute(50e-6) // per-step local work
		}
		copy(result[lo:hi], u)
		finished++
	}

	world.Launch(ns, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		dist := partition.NewBlockDist(n, ns)
		rank := comm.Rank(c)
		lo, hi := dist.Lo(rank), dist.Hi(rank)
		u := append([]float64(nil), initial()[lo:hi]...)
		run(c, comm, u, lo, hi, 0, false)
	})
	if err := kernel.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation failed:", err)
		os.Exit(1)
	}
	if finished != nt {
		fmt.Fprintf(os.Stderr, "%d ranks finished, want %d\n", finished, nt)
		os.Exit(1)
	}

	worst := 0.0
	for i := range ref {
		if d := math.Abs(result[i] - ref[i]); d > worst {
			worst = d
		}
	}
	fmt.Printf("verification: max |u_malleable - u_sequential| = %.3e after %d steps\n", worst, steps)
	if worst > 1e-12 {
		os.Exit(1)
	}
	fmt.Printf("field identical to the sequential reference; virtual time %.2f ms\n", kernel.Now()*1e3)
}
