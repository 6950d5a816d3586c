package netmodel

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refFabric is the per-flow fluid fabric: every recompute recounts the
// flows at each resource and re-rates every streaming flow, and every
// completion scans them all. It is the oracle TestFabricMatchesReference
// checks Fabric against.
type refFabric struct {
	k      *sim.Kernel
	params Params
	nodes  int

	flows      []*refFlow
	lastUpdate float64
	timer      sim.Timer
	nextSeq    uint64
	completeFn func()

	txCount, rxCount, memCount []int
	completed                  []*refFlow

	degrade []float64
}

type refFlow struct {
	f         *refFabric
	seq       uint64
	src, dst  int
	remaining float64
	rate      float64
	done      func()
	started   bool
	finished  bool
	latTimer  sim.Timer
	index     int
}

func newRefFabric(k *sim.Kernel, params Params, nodes int) *refFabric {
	f := &refFabric{
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

func (f *refFabric) SetNodeDegradation(node int, factor float64) {
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

func (f *refFabric) nicBandwidth(node int) float64 {
	if f.degrade == nil {
		return f.params.Bandwidth
	}
	return f.params.Bandwidth * f.degrade[node]
}

func (f *refFabric) Transfer(src, dst int, size int64, done func()) *refFlow {
	fl := &refFlow{f: f, seq: f.nextSeq, src: src, dst: dst, remaining: float64(size), done: done}
	f.nextSeq++
	lat := f.params.Latency
	if src == dst {
		lat = f.params.IntraLatency
	}
	fl.latTimer = f.k.AfterHandler(lat, (*refLatency)(fl))
	return fl
}

type refLatency refFlow

func (l *refLatency) Fire() {
	fl := (*refFlow)(l)
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

func (fl *refFlow) Cancel() bool {
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

func (f *refFabric) detach(fl *refFlow) {
	i := fl.index
	last := len(f.flows) - 1
	f.flows[i] = f.flows[last]
	f.flows[i].index = i
	f.flows[last] = nil
	f.flows = f.flows[:last]
	fl.index = -1
}

func (fl *refFlow) Remaining() float64 { return fl.remaining }

func (f *refFabric) advance() {
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

func (f *refFabric) recompute() {
	f.timer.Cancel()
	if len(f.flows) == 0 {
		return
	}
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

func (f *refFabric) onCompletion() {
	f.advance()
	const eps = 1e-9
	now := f.k.Now()
	finished := f.completed[:0]
	for _, fl := range f.flows {
		if fl.remaining <= eps || now+fl.remaining/fl.rate == now {
			finished = append(finished, fl)
		}
	}
	slices.SortFunc(finished, func(a, b *refFlow) int { return cmp.Compare(a.seq, b.seq) })
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

// fabOp is one step of a seeded fabric schedule.
type fabOp struct {
	at       float64
	kind     byte // 's' start, 'c' cancel, 'd' degrade, 'r' sample Remaining
	src, dst int
	size     int64
	target   int // the flow a cancel aims at, by start order
	node     int
	factor   float64
}

// fabUnderTest adapts Fabric and refFabric to one schedule runner.
type fabUnderTest struct {
	transfer func(src, dst int, size int64, done func()) flowUnderTest
	degrade  func(node int, factor float64)
}

type flowUnderTest interface {
	Cancel() bool
	Remaining() float64
}

// fabricFlow gives a Fabric flow the Remaining sample refFlow has.
type fabricFlow struct{ *Flow }

func (fl fabricFlow) Remaining() float64 { return fl.remaining }

// randomFabSchedule draws a schedule on an 8-node fabric: bursts of flow
// starts at one instant (so many latency phases end together), a mix of
// inter- and intra-node flows over a few busy nodes (so classes hold many
// flows), zero-size flows, cancels that land in the latency phase, while
// streaming or after completion, mid-flow degradations and Remaining
// samples, all on a coarse time grid so events tie.
func randomFabSchedule(rng *rand.Rand, p Params) []fabOp {
	tick := p.Latency / 2
	byteTick := p.Bandwidth * p.Latency
	busy := 2 + rng.Intn(7) // flows mostly between nodes [0, busy)
	node := func() int {
		if rng.Intn(5) == 0 {
			return rng.Intn(8)
		}
		return rng.Intn(busy)
	}
	var ops []fabOp
	var startAt []float64 // by start order
	for n := 20 + rng.Intn(60); n > 0; n-- {
		at := tick * float64(rng.Intn(400))
		switch r := rng.Intn(20); {
		case r < 12: // a burst of starts at one instant
			for b := 1 + rng.Intn(40); b > 0; b-- {
				op := fabOp{at: at, kind: 's', src: node()}
				op.dst = node()
				if rng.Intn(4) == 0 {
					op.dst = op.src
				}
				switch rng.Intn(6) {
				case 0:
					op.size = 0
				case 1:
					op.size = 1 + rng.Int63n(1000)
				default:
					op.size = int64(byteTick * 40 * rng.Float64())
				}
				ops = append(ops, op)
				startAt = append(startAt, at)
			}
		case r < 16: // a cancel at or after its flow's start
			if len(startAt) > 0 {
				target := rng.Intn(len(startAt))
				at := startAt[target] + tick*float64(rng.Intn(40))
				ops = append(ops, fabOp{at: at, kind: 'c', target: target})
			}
		case r < 18:
			factors := []float64{0.25, 0.5, 0.8, 1}
			ops = append(ops, fabOp{at: at, kind: 'd', node: rng.Intn(8), factor: factors[rng.Intn(len(factors))]})
		default:
			ops = append(ops, fabOp{at: at, kind: 'r'})
		}
	}
	return ops
}

// runFabSchedule replays ops on a fresh kernel and logs every delivery,
// cancel result and sampled residue with exact float bits, then the
// kernel's event count.
func runFabSchedule(ops []fabOp, p Params, newFab func(*sim.Kernel, Params, int) fabUnderTest) []string {
	k := sim.NewKernel()
	fab := newFab(k, p, 8)
	var log []string
	var flows []flowUnderTest
	for _, op := range ops {
		switch op.kind {
		case 's':
			id := len(flows)
			flows = append(flows, nil)
			k.At(op.at, func() {
				flows[id] = fab.transfer(op.src, op.dst, op.size, func() {
					log = append(log, fmt.Sprintf("done %d at %x", id, math.Float64bits(k.Now())))
				})
			})
		case 'c':
			k.At(op.at, func() {
				if fl := flows[op.target]; fl != nil {
					log = append(log, fmt.Sprintf("cancel %d: %v", op.target, fl.Cancel()))
				}
			})
		case 'd':
			k.At(op.at, func() { fab.degrade(op.node, op.factor) })
		case 'r':
			k.At(op.at, func() {
				for id, fl := range flows {
					if fl != nil {
						log = append(log, fmt.Sprintf("rem %d: %x", id, math.Float64bits(fl.Remaining())))
					}
				}
			})
		}
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return append(log, fmt.Sprintf("events %d", k.Stats().Events))
}

// TestFabricMatchesReference: on seeded schedules that mix inter- and
// intra-node flows, zero-size flows, bursts whose latency phases end at
// one instant, cancels in the latency phase and while streaming, and
// mid-flow degradations, Fabric delivers the same flows at bit-identical
// times, in the same order, with bit-identical residues at sampled
// instants and the same number of kernel events as the per-flow reference.
func TestFabricMatchesReference(t *testing.T) {
	newFabric := func(k *sim.Kernel, p Params, nodes int) fabUnderTest {
		f := NewFabric(k, p, nodes)
		return fabUnderTest{
			transfer: func(src, dst int, size int64, done func()) flowUnderTest {
				return fabricFlow{f.Transfer(src, dst, size, done)}
			},
			degrade: f.SetNodeDegradation,
		}
	}
	newRef := func(k *sim.Kernel, p Params, nodes int) fabUnderTest {
		f := newRefFabric(k, p, nodes)
		return fabUnderTest{
			transfer: func(src, dst int, size int64, done func()) flowUnderTest { return f.Transfer(src, dst, size, done) },
			degrade:  f.SetNodeDegradation,
		}
	}
	noCap := testParams()
	noCap.IntraPerFlow = 0
	presets := []Params{testParams(), noCap, Ethernet10G(), InfinibandEDR()}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := presets[rng.Intn(len(presets))]
		ops := randomFabSchedule(rng, p)
		got := runFabSchedule(ops, p, newFabric)
		want := runFabSchedule(ops, p, newRef)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, reference %d (last %q vs %q)", seed, len(got), len(want), got[len(got)-1], want[len(want)-1])
		}
		done, cancels := 0, 0
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: observation %d = %q, reference %q", seed, i, got[i], want[i])
			}
			switch got[i][0] {
			case 'd':
				done++
			case 'c':
				cancels++
			}
		}
		if done == 0 || cancels == 0 {
			t.Fatalf("seed %d: schedule delivered %d flows and cancelled %d", seed, done, cancels)
		}
	}
}
