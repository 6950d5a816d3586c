// Package model provides closed-form performance models for the paper's
// reconfiguration methods: Hockney-style latency/bandwidth terms for the
// redistribution, a linear spawn model, and the oversubscription penalties
// of the blocking inter-communicator collectives. The models predict what
// the simulator measures (validated in the tests within generous bounds)
// and, more importantly, expose *why* each method costs what it costs —
// the same reasoning §4.4 uses to explain its plots.
package model

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// System bundles the machine parameters the predictions need.
type System struct {
	// Latency and Bandwidth describe one NIC direction (seconds, bytes/s).
	Latency   float64
	Bandwidth float64

	Nodes        int
	CoresPerNode int

	SpawnBase    float64
	SpawnPerProc float64

	// CopyRate is the per-core pack/unpack bandwidth; SchedQuantum the OS
	// time slice behind the convoy penalties.
	CopyRate     float64
	SchedQuantum float64
}

// FromCluster derives a System from the simulation's configuration.
func FromCluster(cfg cluster.Config, opts mpi.Options) System {
	return System{
		Latency:      cfg.Net.Latency,
		Bandwidth:    cfg.Net.Bandwidth,
		Nodes:        cfg.Nodes,
		CoresPerNode: cfg.CoresPerNode,
		SpawnBase:    cfg.SpawnBase,
		SpawnPerProc: cfg.SpawnPerProc,
		CopyRate:     opts.CopyRate,
		SchedQuantum: opts.SchedQuantum,
	}
}

// nodesFor applies the paper's allocation rule ⌈n/cores⌉, capped at the
// machine.
func (s System) nodesFor(n int) int {
	k := (n + s.CoresPerNode - 1) / s.CoresPerNode
	if k > s.Nodes {
		k = s.Nodes
	}
	if k < 1 {
		k = 1
	}
	return k
}

// SpawnTime predicts one collective MPI_Comm_spawn of n processes.
func (s System) SpawnTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return s.SpawnBase + float64(n)*s.SpawnPerProc
}

// TransferTime predicts the bulk data movement of a redistribution: bytes
// leave the source nodes and enter the target nodes; the slower NIC
// aggregate is the bottleneck. Merge keeps the node sets overlapping, but
// the per-direction totals are the same to first order.
func (s System) TransferTime(ns, nt int, bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	tx := float64(bytes) / (float64(s.nodesFor(ns)) * s.Bandwidth)
	rx := float64(bytes) / (float64(s.nodesFor(nt)) * s.Bandwidth)
	return math.Max(tx, rx)
}

// CopyTime predicts the per-rank pack+unpack CPU cost on the critical path.
func (s System) CopyTime(ns, nt int, bytes int64) float64 {
	if s.CopyRate <= 0 || bytes <= 0 {
		return 0
	}
	perSource := float64(bytes) / float64(ns)
	perTarget := float64(bytes) / float64(nt)
	return (perSource + perTarget) / s.CopyRate
}

// Oversubscription returns the paper's Baseline load factor: NS+NT
// processes on the nodes of max(NS, NT), minus one; zero for Merge.
func (s System) Oversubscription(ns, nt int) float64 {
	cores := float64(s.nodesFor(maxInt(ns, nt)) * s.CoresPerNode)
	f := float64(ns+nt)/cores - 1
	if f < 0 {
		return 0
	}
	return f
}

// PairwisePenalty predicts the convoy cost of the blocking
// inter-communicator Alltoallv: one rescheduling delay per serialized step
// on oversubscribed nodes. Steps equal the peer-group size.
func (s System) PairwisePenalty(ns, nt int) float64 {
	over := s.Oversubscription(ns, nt)
	if over <= 0 {
		return 0
	}
	steps := float64(maxInt(ns, nt))
	return steps * s.SchedQuantum * over
}

// Method identifies a reconfiguration variant for prediction.
type Method struct {
	Merge    bool // Merge vs Baseline process management
	Pairwise bool // blocking inter-communicator collectives (Baseline COLS)
}

// ReconfigTime predicts the synchronous reconfiguration NS -> NT moving
// bytes of data: spawn on the critical path, bulk transfer, pack/unpack,
// and — for Baseline — the oversubscription penalties.
func (s System) ReconfigTime(m Method, ns, nt int, bytes int64) float64 {
	var t float64
	if m.Merge {
		t += s.SpawnTime(nt - ns) // expansion spawns the difference
	} else {
		t += s.SpawnTime(nt)
	}
	t += s.TransferTime(ns, nt, bytes)
	t += s.CopyTime(ns, nt, bytes)
	if !m.Merge && m.Pairwise {
		t += s.PairwisePenalty(ns, nt)
	}
	return t
}

// IterationTime predicts one iteration of the §4.2 CG emulation on p
// processes: perfectly parallel compute plus the ring Allgatherv whose
// node-boundary crossing carries the whole vector.
func (s System) IterationTime(p int, computeCoreSeconds float64, gatherBytes int64) float64 {
	t := computeCoreSeconds / float64(p)
	if p > 1 && gatherBytes > 0 {
		vec := float64(gatherBytes) * float64(p-1) / float64(p)
		t += vec / s.Bandwidth // the boundary NIC crossing
		t += float64(p) * s.Latency
	}
	return t
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
