// Package rms holds the resource-management vocabulary of the paper's
// final future-work item (§5), a study of how malleability affects the
// makespan of a whole system: the job submission, its validation, and
// the reconfiguration cost model calibrated from the same spawn/transfer
// model as the rest of the reproduction. The scheduler that runs jobs
// against a cluster is workload.Run.
package rms

import (
	"fmt"
	"math"
)

// Job describes one submission.
type Job struct {
	ID      int
	Arrival float64 // seconds
	Work    float64 // core-seconds of perfectly parallel work

	// Procs is the allocation of a rigid job and the minimum of a
	// malleable one.
	Procs int
	// MaxProcs caps a malleable job's expansion; ignored for rigid jobs.
	MaxProcs int
	// Malleable marks jobs that may be reconfigured while running.
	Malleable bool
	// DataBytes is redistributed at every reconfiguration.
	DataBytes int64
}

// CostModel prices one reconfiguration from ns to nt processes moving
// dataBytes.
type CostModel func(ns, nt int, dataBytes int64) float64

// PaperCostModel builds a cost model from the reproduction's calibration:
// a spawn term (Baseline-style: per-process cost for the processes
// created) plus the data transfer at the given per-node bandwidth with
// coresPerNode ranks per node. Like the netmodel constructors, physically
// meaningless parameters are rejected at construction — they would
// otherwise surface much later as NaN or negative makespans. The transfer
// term spreads the bytes over the ⌈max(ns, nt)/coresPerNode⌉ nodes of the
// larger group, whereas a shrink's receive side is bounded by the target's
// fewer nodes, so shrinks are priced well below what the simulator takes.
func PaperCostModel(spawnBase, spawnPerProc, bandwidth float64, coresPerNode int) CostModel {
	if coresPerNode < 1 {
		panic(fmt.Sprintf("rms: cost model with %d cores/node", coresPerNode))
	}
	if math.IsNaN(bandwidth) || math.IsInf(bandwidth, 0) || bandwidth <= 0 {
		panic(fmt.Sprintf("rms: cost model bandwidth must be finite and > 0, got %v", bandwidth))
	}
	return func(ns, nt int, dataBytes int64) float64 {
		spawned := nt - ns
		if spawned < 0 {
			spawned = 0
		}
		cost := spawnBase + float64(spawned)*spawnPerProc
		nodes := (max(ns, nt) + coresPerNode - 1) / coresPerNode
		if nodes > 0 && dataBytes > 0 {
			cost += float64(dataBytes) / (bandwidth * float64(nodes))
		}
		return cost
	}
}

// InvalidJobError reports a job that failed submission validation.
type InvalidJobError struct {
	Job    Job
	Reason string
}

func (e *InvalidJobError) Error() string {
	return fmt.Sprintf("rms: invalid job %d: %s", e.Job.ID, e.Reason)
}

// ValidateJob checks one submission against a cluster of cores cores. A
// rejected job would otherwise propagate silently as a NaN or negative
// makespan (non-positive or non-finite Work), a stuck queue (Procs that
// never fit), or a shrinking "expansion" (malleable MaxProcs below Procs;
// zero means "no expansion" and the scheduler normalizes it to Procs).
func ValidateJob(j Job, cores int) error {
	fail := func(format string, args ...any) error {
		return &InvalidJobError{Job: j, Reason: fmt.Sprintf(format, args...)}
	}
	if math.IsNaN(j.Work) || math.IsInf(j.Work, 0) || j.Work <= 0 {
		return fail("Work must be finite and > 0, got %v", j.Work)
	}
	if math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) || j.Arrival < 0 {
		return fail("Arrival must be finite and >= 0, got %v", j.Arrival)
	}
	if j.Procs < 1 {
		return fail("Procs must be >= 1, got %d", j.Procs)
	}
	if j.Procs > cores {
		return fail("Procs %d exceeds the cluster's %d cores", j.Procs, cores)
	}
	if j.Malleable && j.MaxProcs != 0 && j.MaxProcs < j.Procs {
		return fail("malleable MaxProcs %d below Procs %d", j.MaxProcs, j.Procs)
	}
	if j.DataBytes < 0 {
		return fail("DataBytes must be >= 0, got %d", j.DataBytes)
	}
	return nil
}
