package trace

import "fmt"

// EventKind classifies one typed trace event.
type EventKind uint8

const (
	// EvSend is a point-to-point send issue (Isend/Send).
	EvSend EventKind = iota
	// EvRecv is a completed point-to-point delivery (or a one-sided Get,
	// recorded at the origin when the data lands).
	EvRecv
	// EvColl is one collective operation; blocking collectives are spans,
	// non-blocking issues are instants.
	EvColl
	// EvCompute is a span of single-core CPU work under processor sharing.
	EvCompute
	// EvSpawn is the process-management span of MPI_Comm_spawn on the rank
	// paying the spawn cost.
	EvSpawn
	// EvBarrier is a synchronization span (Barrier, FastBarrier, Fence).
	EvBarrier
	// EvPhase is a reconfiguration stage span recorded by the core layer:
	// its Op names the stage (spawn, redist-const, redist-var, halt).
	EvPhase
	// EvFault is a fault-injection or recovery action instant: its Op names
	// the action (crash, detect, drop, delay, spawn-fail, spawn-retry,
	// degrade, abort, replan, escalate, extend, overlap-fallback) and Peer
	// the affected process where one applies. Ladder events carry the rung
	// in Tag: "escalate" marks the pass reaching that rung, "extend" one
	// rung-1 adaptive deadline extension, "spawn-retry" a failed spawn
	// attempt's ordinal.
	EvFault
)

func (k EventKind) String() string {
	switch k {
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvColl:
		return "collective"
	case EvCompute:
		return "compute"
	case EvSpawn:
		return "spawn"
	case EvBarrier:
		return "barrier"
	case EvPhase:
		return "phase"
	case EvFault:
		return "fault"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Reconfiguration phase names used by the core layer to tag events; they
// match the paper's §4 stage decomposition.
const (
	// PhaseSpawn is stage 2: process management (spawn, merge).
	PhaseSpawn = "spawn"
	// PhaseRedistConst is the constant-data redistribution pass, overlapped
	// with application iterations in asynchronous configurations.
	PhaseRedistConst = "redist-const"
	// PhaseRedistVar is the variable-data redistribution pass, run with the
	// sources halted (all data for synchronous configurations).
	PhaseRedistVar = "redist-var"
	// PhaseHalt spans the source halt: from the instant iterations stop to
	// the completed handover.
	PhaseHalt = "halt"
	// PhaseProtect is the pre-epoch checkpoint pass of the resilient
	// protocol: sources persist their chunks before the transfer starts so a
	// lost source copy can be re-read.
	PhaseProtect = "protect"
	// PhaseRecovery spans recovery work after a detected fault: the re-plan
	// and the re-transfer rounds over the survivor set.
	PhaseRecovery = "recovery"
)

// Event is one typed record of the message-level log. Instant events have
// End == Start. Rank is the world-unique process id (respawned ranks stay
// distinct); Peer is the peer's world-unique id or -1; Tag and Comm are the
// MPI tag and matching-context id, or -1 when not applicable.
type Event struct {
	Kind  EventKind `json:"kind"`
	Rank  int       `json:"rank"`
	Start float64   `json:"start"`
	End   float64   `json:"end"`
	Peer  int       `json:"peer"`
	Tag   int       `json:"tag"`
	Comm  int       `json:"comm"`
	Bytes int64     `json:"bytes"`
	Op    string    `json:"op"`
	Phase string    `json:"phase,omitempty"`
}

// Duration returns the event's span length (zero for instants).
func (e Event) Duration() float64 { return e.End - e.Start }

// Recorder collects typed events for one run. Like Monitor it is
// single-threaded by construction: the simulation kernel runs one process
// at a time, so no locking is needed. A nil *Recorder is the disabled
// state; instrumentation sites nil-check before building events so the
// zero-cost path stays allocation-free.
//
// The log lives in fixed-size chunks: Record fills the open chunk and
// starts a new one when it is full, so a recorded event is never copied
// again while the log grows. The zero value is an empty log.
type Recorder struct {
	chunks []*eventChunk // the log fills them in order; Reset keeps them for reuse
	n      int           // events recorded
}

// recorderChunk is the number of events per chunk. Even the smallest
// traced cell records hundreds of events, so one chunk holds most logs
// whole, and a long log costs one allocation per 4096 events.
const recorderChunk = 4096

type eventChunk [recorderChunk]Event

// NewRecorder returns an empty event log.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one event.
func (r *Recorder) Record(ev Event) {
	c := r.n / recorderChunk
	if c == len(r.chunks) {
		r.chunks = append(r.chunks, new(eventChunk))
	}
	r.chunks[c][r.n%recorderChunk] = ev
	r.n++
}

// segments returns the log as slices over its chunks, in record order:
// the events themselves are not copied.
func (r *Recorder) segments() [][]Event {
	segs := make([][]Event, 0, (r.n+recorderChunk-1)/recorderChunk)
	for lo := 0; lo < r.n; lo += recorderChunk {
		segs = append(segs, r.chunks[lo/recorderChunk][:min(r.n-lo, recorderChunk)])
	}
	return segs
}

// Events returns a copy of the log in record order (chronological: events
// are recorded at their End time under the single-threaded kernel). The
// copy is the caller's to keep: it stays valid across Reset and later
// recording.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	for _, seg := range r.segments() {
		out = append(out, seg...)
	}
	return out
}

// Reset empties the log, keeping its chunks so harness sweeps can reuse
// one recorder across runs without reallocating.
func (r *Recorder) Reset() { r.n = 0 }

// Len reports the number of recorded events.
func (r *Recorder) Len() int { return r.n }
