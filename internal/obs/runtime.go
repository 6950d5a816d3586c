package obs

import (
	"runtime/metrics"
	"sync/atomic"
)

// RuntimeSample is one self-profiling reading of the host Go process via
// runtime/metrics: how much the telemetry (and everything else in the
// process) is costing in GC cycles, live heap, cumulative allocation,
// and goroutines. Campaign meters attach one sample per emitted line so
// long sweeps expose their real resource trajectory, not just virtual
// time.
//
// TotalBytes and PeakRSSBytes are the process-level counterpart of the
// simulation's per-rank redist/peak_live_bytes gauge: /memory/classes/
// total:bytes counts every byte the Go runtime has mapped (heap, stacks,
// metadata — the closest runtime/metrics proxy for resident set size),
// and PeakRSSBytes is its process-wide high-water mark across every
// sample taken so far, from any stream or meter.
//
// GCCPUSeconds and GCAssistCPUSeconds put the collector's share of the
// process's CPU in the ledger: the runtime's estimate of all CPU time
// spent in GC, and the part of it charged to allocating goroutines as mark
// assists. StackBytes is the memory in goroutine stacks, which a world of
// many parked rank coroutines grows.
type RuntimeSample struct {
	HeapBytes          uint64  `json:"heapBytes"`       // live heap objects
	TotalAllocBytes    uint64  `json:"totalAllocBytes"` // cumulative allocated
	GCCycles           uint64  `json:"gcCycles"`
	Goroutines         uint64  `json:"goroutines"`
	TotalBytes         uint64  `json:"totalBytes"`         // mapped runtime memory now
	PeakRSSBytes       uint64  `json:"peakRssBytes"`       // high-water of TotalBytes
	GCCPUSeconds       float64 `json:"gcCpuSeconds"`       // cumulative
	GCAssistCPUSeconds float64 `json:"gcAssistCpuSeconds"` // cumulative
	StackBytes         uint64  `json:"stackBytes"`
}

var runtimeSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/total:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/gc/mark/assist:cpu-seconds"},
	{Name: "/memory/classes/heap/stacks:bytes"},
}

// peakRSS is the process-wide high-water mark of /memory/classes/
// total:bytes, advanced by every SampleRuntime call from any goroutine.
var peakRSS atomic.Uint64

// SampleRuntime reads the current process-level sample and advances the
// peak-RSS high-water mark.
func SampleRuntime() RuntimeSample {
	s := make([]metrics.Sample, len(runtimeSamples))
	copy(s, runtimeSamples)
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	total := u(4)
	for {
		old := peakRSS.Load()
		if total <= old {
			break
		}
		if peakRSS.CompareAndSwap(old, total) {
			break
		}
	}
	return RuntimeSample{
		HeapBytes:          u(0),
		TotalAllocBytes:    u(1),
		GCCycles:           u(2),
		Goroutines:         u(3),
		TotalBytes:         total,
		PeakRSSBytes:       peakRSS.Load(),
		GCCPUSeconds:       f(5),
		GCAssistCPUSeconds: f(6),
		StackBytes:         u(7),
	}
}
