// Makespan study: the paper's final future-work item (§5) — how does
// malleability affect system throughput when a resource manager drives it?
//
// A 160-core cluster (the paper's testbed) receives a staggered batch of
// CG-style jobs. Under the rigid policy every job holds its initial 40
// cores; under the greedy policy malleable jobs expand into idle cores and
// shrink when new submissions arrive, paying the reconfiguration cost of
// the calibrated Baseline-style model (spawn plus 4 GB redistribution over
// the Ethernet fabric). The run compares makespan and utilization across
// the two policies on the cluster-workload scheduler (FCFS with EASY
// backfill).
//
//	go run ./examples/makespan
package main

import (
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/rms"
	"repro/internal/workload"
)

func main() {
	const nJobs = 8
	cl := cluster.Default(netmodel.Ethernet10G()) // 8 nodes x 20 cores
	cores := cl.Nodes * cl.CoresPerNode
	cost := rms.PaperCostModel(30e-3, 25e-3, 1.25e9, cl.CoresPerNode)

	jobs := make([]rms.Job, nJobs)
	for i := range jobs {
		jobs[i] = rms.Job{
			ID:      i,
			Arrival: float64(i) * 30,
			Work:    24000, // core-seconds (~10 min at 40 cores)
			Procs:   40, MaxProcs: cores,
			Malleable: true,
			DataBytes: 4 << 30, // the paper's ~4 GB working set
		}
	}
	run := func(pol workload.Policy) workload.Result {
		res, err := workload.Run(jobs, workload.Params{Cluster: cl, Cost: cost, Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	rigid := run(workload.RigidPolicy{})
	malleable := run(workload.GreedyPolicy{})

	fmt.Printf("%-10s %12s %12s %14s\n", "policy", "makespan(s)", "utilization", "reconfigs")
	report := func(name string, r workload.Result) {
		fmt.Printf("%-10s %12.1f %11.1f%% %14d\n",
			name, r.Makespan, 100*r.Utilization, r.Reconfigs)
	}
	report("rigid", rigid)
	report("malleable", malleable)

	fmt.Printf("\nper-job completion (malleable policy):\n")
	for _, j := range malleable.Jobs {
		fmt.Printf("  job %d: start %7.1fs end %7.1fs, %d reconfigurations (%.2fs paused)\n",
			j.ID, j.Start, j.End, j.Reconfigs, j.ReconfigSeconds)
	}
	gain := rigid.Makespan / malleable.Makespan
	fmt.Printf("\nmalleability shortens the makespan by %.2fx\n", gain)
}
