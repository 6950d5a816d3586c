// Package netmodel implements a fluid-flow interconnect model in virtual
// time.
//
// Every message transfer is a flow: after a fixed one-way latency the
// payload streams through the sender's transmit NIC and the receiver's
// receive NIC. Each NIC direction is a shared resource; a flow's
// instantaneous rate is the minimum of its fair share at each resource it
// crosses — the fluid approximation of packet-level fair queueing. The
// streaming flows between one (source, destination) node pair cross the
// same resources and form one class with one rate, so when flows start or
// finish the fabric re-rates each active class, not each flow.
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

	// classes[src][dst] is the class of the streaming flows from node src
	// to node dst; a row is built on the first flow from src, so a wide
	// fabric holds only the pairs it has used.
	classes [][]*flowClass
	// active lists the classes that hold a streaming flow.
	active     []*flowClass
	lastUpdate float64
	timer      sim.Timer
	nextSeq    uint64
	// onCompletion bound once: arming the timer allocates no method value.
	completeFn func()

	// Streaming flows per resource, kept as flows join and leave: the tx
	// and rx NIC of each node (inter-node flows) and each node's memory
	// engine (intra-node flows).
	txCount, rxCount, memCount []int
	// completed is onCompletion's scratch list, reused across completions.
	completed []*Flow

	// degrade scales each node's NIC bandwidth (fault injection of link
	// degradation); nil means every node runs at full rate.
	degrade []float64

	stats Stats
}

// flowClass groups the streaming flows between one (src, dst) node pair.
// They cross the same resources, so they share one rate; minRem is the
// smallest residue among them.
type flowClass struct {
	src, dst int
	flows    []*Flow
	rate     float64 // bytes/s per flow, maintained by recompute
	minRem   float64
	index    int // position in the fabric's active list while it has flows
}

// Stats counts the fabric's work since NewFabric.
type Stats struct {
	// Recomputes is the number of rate recomputations: one per flow that
	// starts streaming, per cancel of a streaming flow, per completion
	// event and per degradation.
	Recomputes uint64
	// Advances is the number of times service was drained into the
	// streaming flows over a positive elapsed virtual time.
	Advances uint64
	// Drained is the number of flow residues those advances updated.
	Drained uint64
	// Rerated is the number of flow classes the recomputes re-rated.
	Rerated uint64
}

// Flow is one in-flight transfer.
type Flow struct {
	f         *Fabric
	seq       uint64
	src, dst  int
	remaining float64 // bytes
	done      sim.Handler
	started   bool // past the latency phase
	finished  bool
	latTimer  sim.Timer
	cls       *flowClass // while streaming
	index     int        // position in cls.flows while streaming
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
		classes:  make([][]*flowClass, nodes),
	}
	f.completeFn = f.onCompletion
	return f
}

// Params returns the interconnect parameters.
func (f *Fabric) Params() Params { return f.params }

// Stats reports the fabric's counters.
func (f *Fabric) Stats() Stats { return f.stats }

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
	var h sim.Handler
	if done != nil {
		h = funcDone(done)
	}
	f.Start(fl, src, dst, size, h)
	return fl
}

// funcDone adapts Transfer's callback to the handler a flow fires. A func
// value is pointer-shaped, so storing one in a Handler does not allocate.
type funcDone func()

func (d funcDone) Fire() { d() }

// Start is Transfer into a caller-owned flow with a typed done handler
// (nil for none): it overwrites fl, which must not be in flight, so a
// caller that sends one message at a time per flow (an mpi envelope)
// reuses it, and completes into state it already owns, instead of
// allocating a flow and a closure per message.
func (f *Fabric) Start(fl *Flow, src, dst int, size int64, done sim.Handler) {
	if src < 0 || src >= f.nodes || dst < 0 || dst >= f.nodes {
		panic(fmt.Sprintf("netmodel: transfer %d->%d outside fabric of %d nodes", src, dst, f.nodes))
	}
	if size < 0 {
		panic(fmt.Sprintf("netmodel: negative transfer size %d", size))
	}
	// Field writes rather than a struct literal, which would build the
	// flow aside and copy it in; every field is set, so a reused Flow
	// keeps nothing from its last transfer.
	fl.f, fl.seq, fl.src, fl.dst = f, f.nextSeq, src, dst
	fl.remaining, fl.done = float64(size), done
	fl.started, fl.finished = false, false
	fl.cls, fl.index = nil, 0
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
			fl.done.Fire()
		}
		return
	}
	fl.started = true
	f.advance()
	f.attach(fl)
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

// attach adds a flow that starts streaming to its class.
func (f *Fabric) attach(fl *Flow) {
	row := f.classes[fl.src]
	if row == nil {
		row = make([]*flowClass, f.nodes)
		f.classes[fl.src] = row
	}
	c := row[fl.dst]
	if c == nil {
		c = &flowClass{src: fl.src, dst: fl.dst}
		row[fl.dst] = c
	}
	if len(c.flows) == 0 {
		c.index = len(f.active)
		f.active = append(f.active, c)
		c.minRem = fl.remaining
	} else if fl.remaining < c.minRem {
		c.minRem = fl.remaining
	}
	fl.cls = c
	fl.index = len(c.flows)
	c.flows = append(c.flows, fl)
	f.count(fl, 1)
}

// count adds delta to the flow counts of the resources fl crosses.
func (f *Fabric) count(fl *Flow, delta int) {
	if fl.src == fl.dst {
		f.memCount[fl.src] += delta
	} else {
		f.txCount[fl.src] += delta
		f.rxCount[fl.dst] += delta
	}
}

// detach removes a cancelled flow from its class in O(1) by swapping in
// the class's last flow; it rescans the class only when the flow held the
// class minimum.
func (f *Fabric) detach(fl *Flow) {
	c := fl.cls
	last := len(c.flows) - 1
	c.flows[fl.index] = c.flows[last]
	c.flows[fl.index].index = fl.index
	c.flows[last] = nil
	c.flows = c.flows[:last]
	f.count(fl, -1)
	switch {
	case last == 0:
		f.deactivate(c)
	case fl.remaining == c.minRem:
		c.minRem = math.Inf(1)
		for _, o := range c.flows {
			c.minRem = min(c.minRem, o.remaining)
		}
	}
}

// deactivate removes an emptied class from the active list by swapping in
// the last active class.
func (f *Fabric) deactivate(c *flowClass) {
	last := len(f.active) - 1
	f.active[c.index] = f.active[last]
	f.active[c.index].index = c.index
	f.active[last] = nil
	f.active = f.active[:last]
}

// advance drains service received since lastUpdate into every streaming
// flow and refreshes each class's minRem. It stays O(streaming flows):
// draining a flow only when its class changes would sum its rate×elapsed
// terms before subtracting them, which rounds differently. The product is
// computed once per class.
func (f *Fabric) advance() {
	now := f.k.Now()
	elapsed := now - f.lastUpdate
	f.lastUpdate = now
	if elapsed <= 0 || len(f.active) == 0 {
		return
	}
	f.stats.Advances++
	for _, c := range f.active {
		served := c.rate * elapsed
		minRem := math.Inf(1)
		for _, fl := range c.flows {
			fl.remaining -= served
			if fl.remaining < 0 {
				fl.remaining = 0
			}
			if fl.remaining < minRem {
				minRem = fl.remaining
			}
		}
		c.minRem = minRem
		f.stats.Drained += uint64(len(c.flows))
	}
}

// recompute reassigns each class's rate (the min of its flows' fair shares
// at each crossed resource) and rearms the completion timer at the
// earliest finish. Division by a positive rate is monotone, so a class's
// earliest finish is its minRem/rate, and the minimum over classes equals
// the minimum over flows bit for bit.
func (f *Fabric) recompute() {
	f.timer.Cancel()
	f.stats.Recomputes++
	if len(f.active) == 0 {
		return
	}
	f.stats.Rerated += uint64(len(f.active))
	earliest := math.Inf(1)
	for _, c := range f.active {
		var rate float64
		if c.src == c.dst {
			rate = f.params.IntraBandwidth / float64(f.memCount[c.src])
			if f.params.IntraPerFlow > 0 && rate > f.params.IntraPerFlow {
				rate = f.params.IntraPerFlow
			}
		} else {
			txShare := f.nicBandwidth(c.src) / float64(f.txCount[c.src])
			rxShare := f.nicBandwidth(c.dst) / float64(f.rxCount[c.dst])
			rate = math.Min(txShare, rxShare)
		}
		c.rate = rate
		if dt := c.minRem / rate; dt < earliest {
			earliest = dt
		}
	}
	f.timer = f.k.After(earliest, f.completeFn)
}

// doneBy is the finished test: a residue is done when it is sub-byte, or
// so small that its completion time rounds to now — otherwise the
// completion event could re-fire at the same timestamp forever. Both parts
// are monotone in rem, so a class whose minRem fails holds no finished
// flow.
func doneBy(now, rem, rate float64) bool {
	const eps = 1e-9 // sub-byte residue
	return rem <= eps || now+rem/rate == now
}

func (f *Fabric) onCompletion() {
	f.advance()
	now := f.k.Now()
	finished := f.completed[:0]
	for i := 0; i < len(f.active); {
		c := f.active[i]
		if !doneBy(now, c.minRem, c.rate) {
			i++
			continue
		}
		// Split the class into its finished flows and the rest, keeping
		// the rest's minimum.
		kept := c.flows[:0]
		c.minRem = math.Inf(1)
		for _, fl := range c.flows {
			if doneBy(now, fl.remaining, c.rate) {
				finished = append(finished, fl)
				f.count(fl, -1)
				fl.finished = true
				continue
			}
			fl.index = len(kept)
			kept = append(kept, fl)
			c.minRem = min(c.minRem, fl.remaining)
		}
		clear(c.flows[len(kept):])
		c.flows = kept
		if len(kept) == 0 {
			f.deactivate(c) // swaps another class into slot i
		} else {
			i++
		}
	}
	// Deterministic delivery order regardless of class and list order.
	slices.SortFunc(finished, func(a, b *Flow) int { return cmp.Compare(a.seq, b.seq) })
	f.recompute()
	for _, fl := range finished {
		if fl.done != nil {
			fl.done.Fire()
		}
	}
	clear(finished)
	f.completed = finished[:0]
}
