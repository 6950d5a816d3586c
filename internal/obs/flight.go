package obs

import "repro/internal/trace"

// FlightRecorder is a fixed-capacity post-mortem buffer: a ring of the
// most recent events of any kind, plus a separate ring that retains
// anomalies — every EvFault instant (crashes, detects, drops, rung
// escalations, deadline extensions, spawn retries, …) — so the forensic
// tail of a failure survives even when ordinary traffic has long since
// overwritten the main ring. Memory is capacity-bounded and independent
// of the run's event count; with full tracing off this is what a
// post-mortem has to work with.
type FlightRecorder struct {
	recent    ring
	anomalies ring
}

// Flight-recorder capacities: enough recent context to see what the run
// was doing when it died, and room for every fault event of any plausible
// chaos plan.
const (
	recentCap  = 256
	anomalyCap = 64
)

// ring is a fixed-capacity overwrite-oldest event buffer.
type ring struct {
	buf   []trace.Event
	next  int
	total uint64
}

func (r *ring) push(ev trace.Event) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// events returns the retained events oldest-first.
func (r *ring) events() []trace.Event {
	n := len(r.buf)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	out := make([]trace.Event, 0, n)
	start := 0
	if r.total >= uint64(len(r.buf)) {
		start = r.next
	}
	for i := 0; i < n; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

func (r *ring) reset() {
	r.next, r.total = 0, 0
}

// NewFlightRecorder returns a recorder keeping the recentCap most recent
// events and the anomalyCap most recent fault events.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{
		recent:    ring{buf: make([]trace.Event, recentCap)},
		anomalies: ring{buf: make([]trace.Event, anomalyCap)},
	}
}

// Record implements trace.Sink.
func (f *FlightRecorder) Record(ev trace.Event) {
	f.recent.push(ev)
	if ev.Kind == trace.EvFault {
		f.anomalies.push(ev)
	}
}

// Recent returns the retained most-recent events, oldest first.
func (f *FlightRecorder) Recent() []trace.Event { return f.recent.events() }

// Anomalies returns the retained fault events, oldest first.
func (f *FlightRecorder) Anomalies() []trace.Event { return f.anomalies.events() }

// Reset empties both rings, keeping their buffers.
func (f *FlightRecorder) Reset() {
	f.recent.reset()
	f.anomalies.reset()
}

// memoryBytes is the recorder's fixed footprint for telemetry-size
// accounting.
func (f *FlightRecorder) memoryBytes() int64 {
	return int64(len(f.recent.buf)+len(f.anomalies.buf)) * eventBytes
}

// eventBytes is the accounting size of one buffered trace.Event: the
// struct's fixed fields plus a nominal share for its strings.
const eventBytes = 96
