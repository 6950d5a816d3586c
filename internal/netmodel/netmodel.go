// Package netmodel implements a fluid-flow interconnect model in virtual
// time.
//
// Every message transfer is a flow: after a fixed one-way latency the
// payload streams through the sender's transmit NIC and the receiver's
// receive NIC. Each NIC direction is a shared resource; a flow's
// instantaneous rate is the minimum of its fair share at each resource it
// crosses. When flows start or finish, all rates are recomputed — the fluid
// approximation of packet-level fair queueing.
//
// Two presets mirror the paper's testbed: 10 Gb/s Ethernet and 100 Gb/s EDR
// Infiniband. Intra-node transfers bypass the NICs and share a per-node
// memory engine instead.
package netmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Params describes an interconnect technology.
type Params struct {
	Name string

	// Latency is the one-way message latency in seconds, paid once per
	// message regardless of size.
	Latency float64
	// Bandwidth is the per-NIC bandwidth in bytes per second, shared by the
	// flows crossing that NIC in one direction.
	Bandwidth float64

	// IntraLatency and IntraBandwidth describe node-local (shared-memory)
	// transfers between ranks on the same node.
	IntraLatency   float64
	IntraBandwidth float64
	// IntraPerFlow caps a single node-local flow (one memcpy stream).
	IntraPerFlow float64
}

// Validate checks the parameters for physical sanity: latencies must be
// finite and non-negative, bandwidths finite and strictly positive, and the
// per-flow cap finite and non-negative (zero disables it). Invalid values
// would otherwise propagate silently as NaN or negative transfer times.
func (p Params) Validate() error {
	nonneg := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("netmodel: %s must be finite and >= 0, got %v", name, v)
		}
		return nil
	}
	positive := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("netmodel: %s must be finite and > 0, got %v", name, v)
		}
		return nil
	}
	for _, err := range []error{
		nonneg("Latency", p.Latency),
		positive("Bandwidth", p.Bandwidth),
		nonneg("IntraLatency", p.IntraLatency),
		positive("IntraBandwidth", p.IntraBandwidth),
		nonneg("IntraPerFlow", p.IntraPerFlow),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// Ethernet10G models the paper's 10 Gb/s Ethernet network
// (MPICH CH3:Nemesis class latencies).
func Ethernet10G() Params {
	return Params{
		Name:           "ethernet",
		Latency:        25e-6,
		Bandwidth:      1.25e9, // 10 Gb/s
		IntraLatency:   0.4e-6,
		IntraBandwidth: 16e9,
		IntraPerFlow:   6e9,
	}
}

// InfinibandEDR models the paper's 100 Gb/s EDR Infiniband network
// (MPICH CH4:OFI class latencies).
func InfinibandEDR() Params {
	return Params{
		Name:           "infiniband",
		Latency:        2e-6,
		Bandwidth:      12.5e9, // 100 Gb/s
		IntraLatency:   0.4e-6,
		IntraBandwidth: 16e9,
		IntraPerFlow:   6e9,
	}
}

// Fabric is the interconnect of a simulated cluster.
type Fabric struct {
	k      *sim.Kernel
	params Params
	nodes  int

	flows      []*Flow
	lastUpdate float64
	timer      sim.Timer
	nextSeq    uint64
	// onCompletion bound once: arming the timer allocates no method value.
	completeFn func()

	// scratch per-node flow counters, reused across recomputes.
	txCount, rxCount, memCount []int
	// completed is onCompletion's scratch list, reused across completions.
	completed []*Flow

	// degrade scales each node's NIC bandwidth (fault injection of link
	// degradation); nil means every node runs at full rate.
	degrade []float64
}

// Flow is one in-flight transfer.
type Flow struct {
	f         *Fabric
	seq       uint64
	src, dst  int
	remaining float64 // bytes
	rate      float64 // current bytes/s, maintained by recompute
	done      func()
	started   bool // past the latency phase
	finished  bool
	latTimer  sim.Timer
	index     int // position in the fabric's flow list, -1 when detached
}

// NewFabric creates an interconnect joining nodes compute nodes. The
// parameters must satisfy Params.Validate.
func NewFabric(k *sim.Kernel, params Params, nodes int) *Fabric {
	if nodes <= 0 {
		panic(fmt.Sprintf("netmodel: fabric with %d nodes", nodes))
	}
	if err := params.Validate(); err != nil {
		panic(err.Error())
	}
	f := &Fabric{
		k:        k,
		params:   params,
		nodes:    nodes,
		txCount:  make([]int, nodes),
		rxCount:  make([]int, nodes),
		memCount: make([]int, nodes),
	}
	f.completeFn = f.onCompletion
	return f
}

// Params returns the interconnect parameters.
func (f *Fabric) Params() Params { return f.params }

// Nodes returns the number of compute nodes attached to the fabric.
func (f *Fabric) Nodes() int { return f.nodes }

// InFlight reports the number of flows currently streaming (past latency).
func (f *Fabric) InFlight() int { return len(f.flows) }

// SetNodeDegradation scales node's NIC bandwidth (both directions) by
// factor in (0, 1]. In-flight flows are re-rated from the current instant.
func (f *Fabric) SetNodeDegradation(node int, factor float64) {
	if node < 0 || node >= f.nodes {
		panic(fmt.Sprintf("netmodel: degrade node %d outside fabric of %d nodes", node, f.nodes))
	}
	if math.IsNaN(factor) || factor <= 0 || factor > 1 {
		panic(fmt.Sprintf("netmodel: degradation factor %v outside (0, 1]", factor))
	}
	if f.degrade == nil {
		f.degrade = make([]float64, f.nodes)
		for i := range f.degrade {
			f.degrade[i] = 1
		}
	}
	f.advance()
	f.degrade[node] = factor
	f.recompute()
}

// nicBandwidth returns node's effective NIC bandwidth after degradation.
func (f *Fabric) nicBandwidth(node int) float64 {
	if f.degrade == nil {
		return f.params.Bandwidth
	}
	return f.params.Bandwidth * f.degrade[node]
}

// Transfer starts moving size bytes from node src to node dst and calls
// done when the last byte arrives. A zero-size transfer still pays latency.
// The returned Flow may be canceled before completion.
func (f *Fabric) Transfer(src, dst int, size int64, done func()) *Flow {
	fl := new(Flow)
	f.Start(fl, src, dst, size, done)
	return fl
}

// Start is Transfer into a caller-owned flow: it overwrites fl, which must
// not be in flight, so a caller that sends one message at a time per flow
// (an mpi envelope) reuses it instead of allocating one per message.
func (f *Fabric) Start(fl *Flow, src, dst int, size int64, done func()) {
	if src < 0 || src >= f.nodes || dst < 0 || dst >= f.nodes {
		panic(fmt.Sprintf("netmodel: transfer %d->%d outside fabric of %d nodes", src, dst, f.nodes))
	}
	if size < 0 {
		panic(fmt.Sprintf("netmodel: negative transfer size %d", size))
	}
	*fl = Flow{f: f, seq: f.nextSeq, src: src, dst: dst, remaining: float64(size), done: done}
	f.nextSeq++
	lat := f.params.Latency
	if src == dst {
		lat = f.params.IntraLatency
	}
	fl.latTimer = f.k.AfterHandler(lat, (*flowLatency)(fl))
}

// flowLatency is the event that ends a flow's latency phase: the flow
// itself, under a type whose Fire starts it streaming.
type flowLatency Flow

func (l *flowLatency) Fire() {
	fl := (*Flow)(l)
	f := fl.f
	if fl.remaining <= 0 {
		fl.finished = true
		if fl.done != nil {
			fl.done()
		}
		return
	}
	fl.started = true
	f.advance()
	fl.index = len(f.flows)
	f.flows = append(f.flows, fl)
	f.recompute()
}

// Cancel aborts the flow; done will not run. It reports whether the flow was
// still pending.
func (fl *Flow) Cancel() bool {
	if fl.finished {
		return false
	}
	fl.finished = true
	if !fl.started {
		fl.latTimer.Cancel()
		return true
	}
	fl.f.advance()
	fl.f.detach(fl)
	fl.f.recompute()
	return true
}

// detach removes a flow from the active list in O(1) by swapping in the
// last element.
func (f *Fabric) detach(fl *Flow) {
	i := fl.index
	last := len(f.flows) - 1
	f.flows[i] = f.flows[last]
	f.flows[i].index = i
	f.flows[last] = nil
	f.flows = f.flows[:last]
	fl.index = -1
}

// Remaining reports the bytes not yet delivered (after the latency phase).
func (fl *Flow) Remaining() float64 { return fl.remaining }

// advance drains service received since lastUpdate into every active flow.
func (f *Fabric) advance() {
	now := f.k.Now()
	elapsed := now - f.lastUpdate
	f.lastUpdate = now
	if elapsed <= 0 {
		return
	}
	for _, fl := range f.flows {
		fl.remaining -= fl.rate * elapsed
		if fl.remaining < 0 {
			fl.remaining = 0
		}
	}
}

// recompute reassigns flow rates (min of fair shares at each crossed
// resource) and rearms the completion timer.
func (f *Fabric) recompute() {
	f.timer.Cancel()
	if len(f.flows) == 0 {
		return
	}
	// Count flows per resource. Resources: per-node tx NIC, per-node rx NIC,
	// per-node memory engine (intra-node flows).
	tx, rx, mem := f.txCount, f.rxCount, f.memCount
	for i := range tx {
		tx[i], rx[i], mem[i] = 0, 0, 0
	}
	for _, fl := range f.flows {
		if fl.src == fl.dst {
			mem[fl.src]++
		} else {
			tx[fl.src]++
			rx[fl.dst]++
		}
	}
	earliest := math.Inf(1)
	for _, fl := range f.flows {
		var rate float64
		if fl.src == fl.dst {
			rate = f.params.IntraBandwidth / float64(mem[fl.src])
			if f.params.IntraPerFlow > 0 && rate > f.params.IntraPerFlow {
				rate = f.params.IntraPerFlow
			}
		} else {
			txShare := f.nicBandwidth(fl.src) / float64(tx[fl.src])
			rxShare := f.nicBandwidth(fl.dst) / float64(rx[fl.dst])
			rate = math.Min(txShare, rxShare)
		}
		fl.rate = rate
		if dt := fl.remaining / rate; dt < earliest {
			earliest = dt
		}
	}
	f.timer = f.k.After(earliest, f.completeFn)
}

func (f *Fabric) onCompletion() {
	f.advance()
	const eps = 1e-9 // sub-byte residue
	now := f.k.Now()
	finished := f.completed[:0]
	for _, fl := range f.flows {
		// A flow is done when its residue is sub-byte, or so small that its
		// completion time rounds to the current instant — otherwise the
		// completion event could re-fire at the same timestamp forever.
		if fl.remaining <= eps || now+fl.remaining/fl.rate == now {
			finished = append(finished, fl)
		}
	}
	// Deterministic delivery order regardless of list order.
	slices.SortFunc(finished, func(a, b *Flow) int { return cmp.Compare(a.seq, b.seq) })
	for _, fl := range finished {
		f.detach(fl)
		fl.finished = true
	}
	f.recompute()
	for _, fl := range finished {
		if fl.done != nil {
			fl.done()
		}
	}
	clear(finished)
	f.completed = finished[:0]
}
