package main

import (
	"container/heap"
	"math/rand"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The untraced pass runs the workload on one thread and times it on the
// process's CPU clock (CLOCK_PROCESS_CPUTIME_ID): the elapsed time less
// the time the CPU was taken from the process, by other processes and by
// the hypervisor when the host this benchmark shares steals the virtual
// CPU (the kernel keeps stolen time out of a process's CPU time). Stolen
// time varies from under 1% to over 15% of a run from one minute to the
// next, and measures the neighbours, not the program.
//
// The host's speed drifts too: the same round takes up to 1.5 times as
// long, on the CPU clock, as it did ten minutes before, and a round of
// half a minute is not timed at one speed throughout. So the pass also
// times a fixed reference unit, which uses no repository code, on the
// CPU clock between the items it times, and reports host seconds at
// reference speed: each item's time is scaled by refNominal over the mean
// of the reference samples taken within refWindow of it. A change to the
// program moves them; a change in the host's speed cancels out as far as
// the reference feels it too. The unscaled times are kept beside them
// (cpu_wall_s, elapsed_s).
//
// A sample runs with the collector stopped: before it the meter finishes
// any collection in progress (charging that work to the item just timed,
// whose allocations started it) and turns collection off, and after it
// turns collection back on. So no collection work runs inside a sample,
// and none runs outside the items.

// refNominal is the reference unit's CPU time, in seconds, at the speed
// the scaled metrics are expressed in (about its time on a quiet 2-vCPU
// x86-64 host).
const refNominal = 0.02

// refEvery is how much timed work one reference sample stands for: once
// refEvery of work is owed the meter takes one sample for each refEvery
// (at most refMaxBurst), so the samples cover the run evenly.
const (
	refEvery    = 0.25
	refMaxBurst = 20
	// refWindow is how far before an item's start and after its end its
	// reference samples reach; at least refMinSamples count, the nearest.
	refWindow     = 0.5
	refMinSamples = 2
)

// cpuClock is the process's on-CPU time, s.
func cpuClock() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		// The clock id is valid and ts is addressable, so only a bug gets here.
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return float64(ts.Nano()) / 1e9
}

// meter times items on the CPU clock and samples the reference between
// them. It is used from one goroutine only: the untraced pass runs its
// cells one at a time. A nil meter times items in elapsed real time.
type meter struct {
	refs     []refSample
	refCPU   float64 // CPU s the reference samples took
	refAlloc float64 // bytes the reference samples allocated
	owed     float64 // timed work since the last sample, s
	pending  []item  // timed items not yet scaled
	// raw and scaled sum the items settled since the last reset.
	raw, scaled float64
}

type refSample struct {
	at time.Time // when the sample was taken
	d  float64   // CPU s
}

type item struct {
	start, end time.Time
	dst        *float64
}

// burst takes n reference samples with the collector stopped, and
// returns the CPU time spent finishing the collection in progress.
func (m *meter) burst(n int) float64 {
	c0 := cpuClock()
	gcPercent := debug.SetGCPercent(-1) // waits for a collection in progress
	c1 := cpuClock()
	finish := c1 - c0
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	a0 := allocs[0].Value.Uint64()
	for i := 0; i < n; i++ {
		t0 := cpuClock()
		refUnit()
		m.refs = append(m.refs, refSample{time.Now(), cpuClock() - t0})
	}
	metrics.Read(allocs)
	m.refAlloc += float64(allocs[0].Value.Uint64() - a0)
	debug.SetGCPercent(gcPercent)
	m.refCPU += cpuClock() - c1
	return finish
}

// time runs fn and stores its host time in *dst: with a meter, on the CPU
// clock, to be scaled to reference speed by the next settle; without
// one, in elapsed real time. It returns fn's error.
func (m *meter) time(dst *float64, fn func() error) error {
	if m == nil {
		t0 := time.Now()
		err := fn()
		*dst = time.Since(t0).Seconds()
		return err
	}
	if len(m.refs) == 0 {
		m.burst(1)
	}
	start, t0 := time.Now(), cpuClock()
	err := fn()
	*dst = cpuClock() - t0
	m.pending = append(m.pending, item{start, time.Now(), dst})
	if m.owed += *dst; m.owed >= refEvery {
		*dst += m.burst(min(int(m.owed/refEvery), refMaxBurst))
		m.owed = 0
	}
	return err
}

// settle scales every pending item to reference speed. It first takes
// the samples that items timed last need after them.
func (m *meter) settle() {
	if m == nil {
		return
	}
	if n := len(m.pending); n > 0 {
		*m.pending[n-1].dst += m.burst(refMinSamples)
	}
	win := time.Duration(refWindow * float64(time.Second))
	for _, it := range m.pending {
		lo := sort.Search(len(m.refs), func(i int) bool { return !m.refs[i].at.Before(it.start.Add(-win)) })
		hi := sort.Search(len(m.refs), func(i int) bool { return m.refs[i].at.After(it.end.Add(win)) })
		// Widen to the nearest samples when the window holds too few.
		for hi-lo < refMinSamples {
			if lo > 0 && (hi == len(m.refs) || it.start.Sub(m.refs[lo-1].at) < m.refs[hi].at.Sub(it.end)) {
				lo--
			} else {
				hi++
			}
		}
		var sum float64
		for _, r := range m.refs[lo:hi] {
			sum += r.d
		}
		raw := *it.dst
		*it.dst = raw * refNominal * float64(hi-lo) / sum
		m.raw += raw
		m.scaled += *it.dst
	}
	m.pending = m.pending[:0]
}

// reset starts a new sum of settled items.
func (m *meter) reset() { m.raw, m.scaled = 0, 0 }

// factor is the scale of the items settled since the last reset: their
// scaled over their raw host time.
func (m *meter) factor() float64 {
	if m.raw == 0 {
		return 1
	}
	return m.scaled / m.raw
}

// refMean is the run's mean reference sample, CPU s.
func (m *meter) refMean() float64 {
	var sum float64
	for _, r := range m.refs {
		sum += r.d
	}
	return sum / float64(max(len(m.refs), 1))
}

// The reference unit does the kinds of work the simulator does, in fixed
// amounts: a float-keyed event heap, small linked allocations kept in a
// map, and goroutine hand-offs over unbuffered channels (the kernel's
// process switch).

type refQueue []float64

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i] < q[j] }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(float64)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

type refNode struct {
	t    float64
	next *refNode
}

// refSink keeps the reference unit's results live.
var refSink float64

func refUnit() {
	r := rand.New(rand.NewSource(7))
	q := make(refQueue, 0, 4096)
	for i := 0; i < 4096; i++ {
		heap.Push(&q, r.Float64())
	}
	live := map[int]*refNode{}
	var head *refNode
	for i := 0; i < 30000; i++ {
		t := heap.Pop(&q).(float64)
		heap.Push(&q, t+r.Float64())
		head = &refNode{t: t, next: head}
		live[i&4095] = head
		if i%64 == 0 {
			head = nil
		}
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := 0
	for i := 0; i < 3000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong
	refSink += q[0] + float64(len(live)+v)
}
