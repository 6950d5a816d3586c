package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/sim/ps"
	"repro/internal/trace"
)

// probeSizes are the N each layer probe runs at: they bracket the paper
// grid (about 10^2 ranks), the scale cells (10^3) and 10k-rank worlds.
var probeSizes = []int{100, 1000, 10000}

// probe times one layer's public entry point in isolation at size n and
// returns host time per operation in the probe's unit.
type probe struct {
	name string // metric prefix; the metric is name + ".n" + N
	unit string
	run  func(n int) float64
}

var probes = []probe{
	{"sim.event_ns", "ns", probeEvent},
	{"sim.resume_ns", "ns", probeResume},
	{"ps.startstop_ns", "ns", probeStartStop},
	{"netmodel.transfer_ns", "ns", probeTransfer},
	{"mpi.fence_us", "us", func(n int) float64 { return collProbes(n)[1] }},
	{"mpi.wincreate_us", "us", func(n int) float64 { return collProbes(n)[0] }},
	{"mpi.barrier_us", "us", func(n int) float64 { return collProbes(n)[2] }},
	{"mpi.alltoallv_us", "us", probeAlltoallv},
	{"mpi.match_ns", "ns", probeMatch},
	{"partition.overlap_ns", "ns", probeOverlap},
	{"core.plan_ns", "ns", probePlan},
	{"obs.stream_record_ns", "ns", probeStreamRecord},
	{"trace.recorder_record_ns", "ns", probeRecorderRecord},
}

type probeValue struct {
	name  string
	value float64
}

// runProbes runs every probe at every size, plus the unsized cost-model
// probe, each inside a benchmark span.
func runProbes(t *tracer) []probeValue {
	clear(collCache) // measure afresh in every traced pass (--workload all)
	root := t.begin("probes", 0)
	defer t.end(root)
	var out []probeValue
	for _, p := range probes {
		for _, n := range probeSizes {
			name := fmt.Sprintf("%s.n%d", p.name, n)
			sp := t.begin(name, root)
			out = append(out, probeValue{name, p.run(n)})
			t.end(sp)
		}
	}
	sp := t.begin("rms.price_ns", root)
	out = append(out, probeValue{"rms.price_ns", probePrice()})
	t.end(sp)
	return out
}

// opsFor sizes a batch so a probe does about total units of work at size n.
func opsFor(total, n, lo int) int { return max(total/n, lo) }

func perOp(d time.Duration, ops int, unit time.Duration) float64 {
	return float64(d) / float64(unit) / float64(ops)
}

// probeEvent: schedule and pop with n events pending. Every popped event
// schedules its successor, so the queue holds n events throughout.
func probeEvent(n int) float64 {
	k := sim.NewKernel()
	rng := rand.New(rand.NewSource(1))
	const ops = 400000
	left := ops
	var fire func()
	fire = func() {
		if left--; left > 0 {
			k.At(k.Now()+rng.Float64(), fire)
		}
	}
	for i := 0; i < n; i++ {
		k.At(rng.Float64(), fire)
	}
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), ops+n, time.Nanosecond)
}

// probeResume: Sleep/wake of one process among n live processes.
func probeResume(n int) float64 {
	k := sim.NewKernel()
	per := opsFor(50000, n, 5)
	for i := 0; i < n; i++ {
		seed := int64(i)
		k.Spawn("p", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < per; j++ {
				p.Sleep(rng.Float64())
			}
		})
	}
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), n*per, time.Nanosecond)
}

// probeStartStop: Start and Stop of a task on a processor-sharing
// resource with n tasks attached.
func probeStartStop(n int) float64 {
	k := sim.NewKernel()
	r := ps.NewResource(k, "cpu", 20, 1)
	for i := 0; i < n; i++ {
		r.AddLoad()
	}
	ops := opsFor(2000000, n, 200)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		r.Start(1, nil).Stop()
	}
	return perOp(time.Since(t0), ops, time.Nanosecond)
}

// probeTransfer: start-to-done of a small transfer on an 8-node fabric
// with n long-lived flows sharing it.
func probeTransfer(n int) float64 {
	k := sim.NewKernel()
	f := netmodel.NewFabric(k, netmodel.Ethernet10G(), 8)
	var bg []*netmodel.Flow
	for i := 0; i < n; i++ {
		bg = append(bg, f.Transfer(i%8, (i+1+i/8)%8, 1<<50, nil))
	}
	ops := opsFor(1000000, n, 20)
	left := ops
	var next func()
	next = func() {
		if left--; left > 0 {
			f.Transfer(left%8, (left+3)%8, 4096, next)
			return
		}
		for _, fl := range bg {
			fl.Cancel()
		}
	}
	k.At(1e-3, next) // after the background flows pass their latency
	t0 := time.Now()
	if err := k.Run(); err != nil {
		panic(err)
	}
	return perOp(time.Since(t0), ops, time.Nanosecond)
}

// probeWorld is the calibrated machine the workloads run on, widened to
// one node per 20 ranks so a probe at n ranks measures the mpi layer and
// not the oversubscribed CPU model (which ps.startstop_ns measures).
func probeWorld(ranks int) *mpi.World {
	s := harness.DefaultSetup(netmodel.Ethernet10G())
	s.Cluster.Nodes = max(s.Cluster.Nodes, (ranks+s.Cluster.CoresPerNode-1)/s.Cluster.CoresPerNode)
	return s.NewWorld(0)
}

// collReps is how many of each collective a probe at n ranks times.
func collReps(n int) int {
	switch {
	case n <= 100:
		return 10
	case n <= 1000:
		return 3
	}
	return 1
}

// collProbes times WinCreate, Fence and Barrier over n ranks in one world:
// after a message-free warm-up barrier that absorbs process start-up,
// rank 0 times reps of each.
// It returns host microseconds per operation, cached per n so the three
// probes share one launch.
func collProbes(n int) [3]float64 {
	if v, ok := collCache[n]; ok {
		return v
	}
	reps := collReps(n)
	w := probeWorld(n)
	var out [3]float64
	w.Launch(n, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		comm.FastBarrier(c)
		timed := func(slot int, op func()) {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				op()
			}
			if comm.Rank(c) == 0 {
				out[slot] = perOp(time.Since(t0), reps, time.Microsecond)
			}
		}
		var win *mpi.Win
		timed(0, func() { win = c.WinCreate(comm, mpi.Virtual(8)) })
		timed(1, func() { c.Fence(win) })
		timed(2, func() { c.Barrier(comm) })
	})
	if err := w.Kernel().Run(); err != nil {
		panic(err)
	}
	collCache[n] = out
	return out
}

// collCache lets the WinCreate, Fence and Barrier probes at one size share
// a launch; runProbes empties it.
var collCache = map[int][3]float64{}

// probeAlltoallv: one Alltoallv moving n messages (a dense exchange over
// sqrt(n) ranks; a dense exchange over n ranks would move n^2).
func probeAlltoallv(n int) float64 {
	ranks := 1
	for (ranks+1)*(ranks+1) <= n {
		ranks++
	}
	reps := collReps(n)
	w := probeWorld(ranks)
	var elapsed time.Duration
	w.Launch(ranks, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		send := make([]mpi.Payload, ranks)
		for i := range send {
			send[i] = mpi.Virtual(1024)
		}
		c.Alltoallv(comm, send)
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			c.Alltoallv(comm, send)
		}
		if comm.Rank(c) == 0 {
			elapsed = time.Since(t0)
		}
	})
	if err := w.Kernel().Run(); err != nil {
		panic(err)
	}
	return perOp(elapsed, reps, time.Microsecond)
}

// probeMatch: Irecv against an n-deep unexpected-message queue. Rank 0
// sends n tagged messages; once they have arrived rank 1 receives them in
// reverse tag order, so each Irecv scans the remaining queue.
func probeMatch(n int) float64 {
	w := probeWorld(2)
	var elapsed time.Duration
	w.Launch(2, func(int) int { return 0 }, func(c *mpi.Ctx, comm *mpi.Comm) {
		if comm.Rank(c) == 0 {
			reqs := make([]mpi.Request, n)
			for tag := 0; tag < n; tag++ {
				reqs[tag] = c.Isend(comm, 1, tag, mpi.Virtual(8))
			}
			c.Waitall(reqs)
			c.Barrier(comm)
			return
		}
		c.Barrier(comm)
		c.Sleep(1) // let every envelope land in the mailbox
		reqs := make([]mpi.Request, n)
		t0 := time.Now()
		for tag := n - 1; tag >= 0; tag-- {
			reqs[tag] = c.Irecv(comm, 0, tag)
		}
		elapsed = time.Since(t0)
		c.Waitall(reqs)
	})
	if err := w.Kernel().Run(); err != nil {
		panic(err)
	}
	return perOp(elapsed, n, time.Nanosecond)
}

// shrinkPlanInputs is the scale workload's geometry at n sources.
func shrinkPlanInputs(n int) (*core.DenseItem, partition.BlockDist, partition.BlockDist) {
	elems := int64(n) * scaleElemsPerRank
	return core.NewDenseVirtual("x", elems, 8, false),
		partition.NewBlockDist(elems, n), partition.NewBlockDist(elems, n/2)
}

// probeOverlap: one source's send-overlap enumeration in an n -> n/2
// shrink, averaged over every source.
func probeOverlap(n int) float64 {
	_, src, dst := shrinkPlanInputs(n)
	reps := opsFor(200000, n, 1)
	chunks := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for s := 0; s < n; s++ {
			partition.VisitSendOverlaps(src, dst, s, func(partition.Chunk) { chunks++ })
		}
	}
	return perOp(time.Since(t0), reps*n, time.Nanosecond)
}

// probePlan: one source's wave schedule (PlanWaveSchedule) in the scale
// workload's n -> n/2 shrink under its 16 KiB ceiling.
func probePlan(n int) float64 {
	it, src, dst := shrinkPlanInputs(n)
	per := make([][]partition.Chunk, n)
	for s := range per {
		per[s] = partition.SendOverlaps(src, dst, s)
	}
	reps := opsFor(100000, n, 1)
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for s := 0; s < n; s++ {
			core.PlanWaveSchedule(it, per[s], scaleCeiling)
		}
	}
	return perOp(time.Since(t0), reps*n, time.Nanosecond)
}

// probeEvents is a deterministic mix of event kinds spread over n ranks.
func probeEvents(n, count int) []trace.Event {
	kinds := []trace.EventKind{trace.EvSend, trace.EvRecv, trace.EvCompute, trace.EvColl}
	evs := make([]trace.Event, count)
	for i := range evs {
		t := float64(i) * 1e-6
		evs[i] = trace.Event{
			Kind: kinds[i%len(kinds)], Rank: i % n, Start: t, End: t + 1e-6*float64(1+i%7),
			Peer: (i + 1) % n, Tag: i % 3, Comm: 1, Bytes: int64(64 << (i % 8)), Op: "Isend",
			Phase: trace.PhaseRedistVar,
		}
	}
	return evs
}

// probeStreamRecord: obs.Stream.Record with events spread over n ranks.
func probeStreamRecord(n int) float64 {
	evs := probeEvents(n, 200000)
	s := obs.NewStream()
	t0 := time.Now()
	for _, ev := range evs {
		s.Record(ev)
	}
	return perOp(time.Since(t0), len(evs), time.Nanosecond)
}

// probeRecorderRecord: trace.Recorder.Record while the recorder fills to
// n events, reusing its storage (Reset) so allocation stays out of it.
func probeRecorderRecord(n int) float64 {
	evs := probeEvents(n, n)
	reps := opsFor(400000, n, 1)
	rec := trace.NewRecorder()
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		rec.Reset()
		for _, ev := range evs {
			rec.Record(ev)
		}
	}
	return perOp(time.Since(t0), reps*n, time.Nanosecond)
}

// probePrice: one reconfiguration price from the cluster cost model.
func probePrice() float64 {
	cost := harness.DefaultClusterCost(cluster.Default(netmodel.Ethernet10G()))
	const ops = 1000000
	var sum float64
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		sum += cost(20+i%140, 10+i%150, int64(1+i%1000)<<20)
	}
	d := time.Since(t0)
	if sum <= 0 {
		panic("rms: non-positive prices")
	}
	return perOp(d, ops, time.Nanosecond)
}
