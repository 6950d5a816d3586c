// Package cluster models the compute side of the testbed: nodes with a
// fixed core count, processor-sharing CPUs, an attached network fabric, a
// process-spawn cost model, and the paper's rank-placement rule.
//
// The paper's machine is eight servers with two 10-core Xeon 4210 CPUs
// (20 cores/node, 160 cores total), allocated ⌈N/20⌉ nodes for N the larger
// of the source and target process counts, with ranks packed by blocks of
// 20 per node.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/sim/ps"
)

// Config describes a simulated cluster.
type Config struct {
	Nodes        int // number of compute nodes
	CoresPerNode int
	Net          netmodel.Params

	// SpawnBase is the fixed cost of an MPI_Comm_spawn call (runtime
	// negotiation with the RMS daemon); SpawnPerProc is the additional cost
	// per spawned process on the critical path (fork/exec, wire-up).
	SpawnBase    float64
	SpawnPerProc float64

	// NoiseSigma is the standard deviation of the multiplicative lognormal
	// noise applied to compute costs; zero disables noise.
	NoiseSigma float64
	// Seed seeds the noise generator; runs with equal seeds are identical.
	Seed int64

	// FSBandwidth is the aggregate bandwidth of the shared parallel
	// filesystem in bytes/s, divided among concurrent streams; it backs the
	// checkpoint/restart baseline of §2. FSPerStream caps one stream and
	// FSLatency is the per-operation metadata latency.
	FSBandwidth float64
	FSPerStream float64
	FSLatency   float64
}

// Default returns the paper's testbed: 8 nodes x 20 cores on the given
// interconnect.
func Default(net netmodel.Params) Config {
	return Config{
		Nodes:        8,
		CoresPerNode: 20,
		Net:          net,
		SpawnBase:    18e-3,
		SpawnPerProc: 3.5e-3,
		NoiseSigma:   0,
		Seed:         1,
		FSBandwidth:  1.5e9, // a modest shared parallel filesystem
		FSPerStream:  0.5e9,
		FSLatency:    5e-3,
	}
}

// Machine is a running cluster instance bound to a simulation kernel.
type Machine struct {
	k      *sim.Kernel
	cfg    Config
	cpus   []*ps.Resource
	fabric *netmodel.Fabric
	fs     *ps.Resource
	rng    *rand.Rand
}

// New builds a machine on kernel k.
func New(k *sim.Kernel, cfg Config) *Machine {
	if cfg.Nodes <= 0 || cfg.CoresPerNode <= 0 {
		panic(fmt.Sprintf("cluster: invalid config %d nodes x %d cores", cfg.Nodes, cfg.CoresPerNode))
	}
	m := &Machine{
		k:      k,
		cfg:    cfg,
		fabric: netmodel.NewFabric(k, cfg.Net, cfg.Nodes),
		rng:    rand.New(newReplaySource(cfg.Seed)),
	}
	for n := 0; n < cfg.Nodes; n++ {
		m.cpus = append(m.cpus, ps.NewResource(k, "node"+strconv.Itoa(n)+".cpu",
			float64(cfg.CoresPerNode), 1))
	}
	if cfg.FSBandwidth > 0 {
		m.fs = ps.NewResource(k, "parallel-fs", cfg.FSBandwidth, cfg.FSPerStream)
	}
	return m
}

// FS returns the shared parallel filesystem (bytes/s under processor
// sharing), or nil when the configuration disables it.
func (m *Machine) FS() *ps.Resource { return m.fs }

// FSLatency returns the per-operation filesystem latency.
func (m *Machine) FSLatency() float64 { return m.cfg.FSLatency }

// Kernel returns the simulation kernel.
func (m *Machine) Kernel() *sim.Kernel { return m.k }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Fabric returns the interconnect.
func (m *Machine) Fabric() *netmodel.Fabric { return m.fabric }

// CPU returns the processor-sharing CPU of node n.
func (m *Machine) CPU(node int) *ps.Resource {
	return m.cpus[node]
}

// Noise draws a multiplicative noise factor (lognormal, mean ≈ 1). With
// NoiseSigma zero it always returns 1.
func (m *Machine) Noise() float64 {
	if m.cfg.NoiseSigma == 0 {
		return 1
	}
	// exp(N(0, sigma)) — median exactly 1, slight right skew like real
	// timing jitter.
	return math.Exp(m.rng.NormFloat64() * m.cfg.NoiseSigma)
}

// NodeOf maps a rank to its node under the paper's block placement:
// ranks are packed CoresPerNode per node.
func (m *Machine) NodeOf(rank int) int {
	n := rank / m.cfg.CoresPerNode
	if n >= m.cfg.Nodes {
		// Ranks beyond physical nodes wrap (only possible if the caller
		// oversubscribes nodes deliberately).
		n = n % m.cfg.Nodes
	}
	return n
}

// SpawnCost returns the virtual-time cost of spawning n processes in one
// collective spawn call.
func (m *Machine) SpawnCost(n int) float64 {
	if n <= 0 {
		return 0
	}
	return m.cfg.SpawnBase + float64(n)*m.cfg.SpawnPerProc
}
