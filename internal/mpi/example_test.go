package mpi_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// A complete two-rank program on the simulated runtime: rank 0 sends a
// vector, rank 1 receives it and both reduce a value. Virtual time advances
// according to the interconnect model.
func Example() {
	kernel := sim.NewKernel()
	machine := cluster.New(kernel, cluster.Config{
		Nodes: 2, CoresPerNode: 2,
		Net:       netmodel.Ethernet10G(),
		SpawnBase: 1e-3, SpawnPerProc: 1e-4,
		Seed: 1,
	})
	world := mpi.NewWorld(machine, mpi.DefaultOptions())

	world.Launch(2, func(rank int) int { return rank }, func(c *mpi.Ctx, comm *mpi.Comm) {
		rank := comm.Rank(c)
		if rank == 0 {
			c.Send(comm, 1, 42, mpi.Float64s([]float64{3, 4}))
		} else {
			payload, status := c.Recv(comm, 0, 42)
			fmt.Printf("rank 1 received %v from rank %d\n", payload.AsFloat64s(), status.Source)
		}
		sum := c.Allreduce(comm, mpi.Float64s([]float64{float64(rank + 1)}), mpi.OpSumFloat64)
		if rank == 0 {
			fmt.Printf("allreduce sum = %v\n", sum.AsFloat64s()[0])
		}
	})
	if err := kernel.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// rank 1 received [3 4] from rank 0
	// allreduce sum = 3
}

// Spawning new processes returns an inter-communicator; merging it yields
// a single group — the Merge method's stage 2.
func Example_spawnAndMerge() {
	kernel := sim.NewKernel()
	machine := cluster.New(kernel, cluster.Config{
		Nodes: 1, CoresPerNode: 8,
		Net:       netmodel.InfinibandEDR(),
		SpawnBase: 1e-3, SpawnPerProc: 1e-4,
		Seed: 1,
	})
	world := mpi.NewWorld(machine, mpi.DefaultOptions())

	world.Launch(2, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		inter := c.Spawn(comm, 2, nil, func(child *mpi.Ctx, _ *mpi.Comm) {
			merged := child.Proc().Parent().Merge(child, true)
			fmt.Printf("spawned process is rank %d of %d\n", merged.Rank(child), merged.Size())
		})
		merged := inter.Merge(c, false)
		if merged.Rank(c) == 0 {
			fmt.Printf("original process is rank %d of %d\n", merged.Rank(c), merged.Size())
		}
	})
	if err := kernel.Run(); err != nil {
		fmt.Println("error:", err)
	}
	// Output:
	// original process is rank 0 of 4
	// spawned process is rank 2 of 4
	// spawned process is rank 3 of 4
}
