package workload_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/rms"
	"repro/internal/workload"
)

// The examples/makespan scenario: eight 40-core CG-style jobs, 30 s
// apart, on the paper's 160-core testbed. The rigid policy holds every
// job at 40 cores; greedy expands them into idle cores and pays the
// calibrated spawn-plus-4-GB-transfer cost at each reconfiguration.
func ExampleRun() {
	cl := cluster.Default(netmodel.Ethernet10G())
	cost := rms.PaperCostModel(30e-3, 25e-3, 1.25e9, cl.CoresPerNode)
	jobs := make([]rms.Job, 8)
	for i := range jobs {
		jobs[i] = rms.Job{ID: i, Arrival: float64(i) * 30, Work: 24000,
			Procs: 40, MaxProcs: 160, Malleable: true, DataBytes: 4 << 30}
	}
	for _, pol := range []workload.Policy{workload.RigidPolicy{}, workload.GreedyPolicy{}} {
		res, err := workload.Run(jobs, workload.Params{Cluster: cl, Cost: cost, Policy: pol})
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-6s makespan %.1f s, utilization %.1f%%, %d reconfigurations\n",
			pol.Name(), res.Makespan, 100*res.Utilization, res.Reconfigs)
	}
	// Output:
	// rigid  makespan 1290.0 s, utilization 93.0%, 0 reconfigurations
	// greedy makespan 1206.4 s, utilization 99.5%, 9 reconfigurations
}
