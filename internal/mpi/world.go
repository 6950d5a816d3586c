// Package mpi implements an MPI-like message-passing runtime on top of the
// discrete-event simulator.
//
// The runtime reproduces the MPI semantics the paper's algorithms rely on:
// intra- and inter-communicators, blocking and non-blocking point-to-point
// operations with eager/rendezvous protocols and non-overtaking matching,
// the Wait/Test family (with MPICH-style polling waits that burn a CPU
// core), the collectives used by the redistribution strategies — including
// the pairwise-exchange algorithm MPICH selects for blocking Alltoallv on
// inter-communicators — plus MPI_Comm_spawn and MPI_Intercomm_merge.
//
// Ranks execute as simulated processes on a cluster.Machine, so message
// timing, CPU packing costs, polling oversubscription, and network
// contention all come out of the machine model rather than being asserted.
package mpi

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"repro/internal/cluster"
	"repro/internal/sim"
	"repro/internal/sim/ps"
	"repro/internal/trace"
)

// Options tune the runtime's cost model.
type Options struct {
	// EagerThreshold is the message size, in bytes, up to which sends
	// complete without waiting for a matching receive. Larger messages use
	// the rendezvous protocol: the payload moves only once the receive is
	// posted, so blocking sends of large messages can deadlock — exactly the
	// hazard §3.1 of the paper describes for the Merge method.
	EagerThreshold int64

	// CopyRate is the memory bandwidth, bytes/s, one core achieves when
	// packing or unpacking a message buffer. Each send and receive charges
	// size/CopyRate of CPU work, which dilates under oversubscription.
	// Zero disables packing costs.
	CopyRate float64

	// SchedQuantum models the OS scheduler time slice. Lock-stepped
	// synchronous collective steps (pairwise exchange) pay an expected
	// rescheduling delay proportional to the node's oversubscription factor,
	// the convoy effect behind Baseline COLS's poor showing in Figures 2-3.
	SchedQuantum float64

	// MaxInFlight caps a process's concurrent outgoing transfers; further
	// sends queue FIFO and start as slots free, modeling the NIC send
	// pipeline (MPI progress engines do not blast hundreds of rendezvous
	// streams simultaneously). Zero means unlimited.
	MaxInFlight int
}

// DefaultOptions returns the calibration used throughout the reproduction.
func DefaultOptions() Options {
	return Options{
		EagerThreshold: 64 << 10,
		CopyRate:       4e9,
		SchedQuantum:   10e-3,
		MaxInFlight:    4,
	}
}

// World is an MPI universe bound to one simulated machine.
type World struct {
	machine *cluster.Machine
	k       *sim.Kernel
	opts    Options

	nextCtxID int

	barriers    map[int]*fastBarrier // shared per matching context
	merges      map[int]*mergeSt     // pending Intercomm_merge rendezvous
	spawns      map[int]*spawnSt     // pending Comm_spawn rendezvous
	derived     map[derivedKey]*Comm // communicators created by Dup/Sub
	wins        map[derivedKey]*Win  // one-sided windows by creation site
	winBarriers map[int]*winBarrier  // death-aware window-epoch barriers

	procs []*Process // every process ever created, indexed by gid

	hooks FaultHooks // nil when fault injection is off

	sink trace.Sink // nil when event tracing is off

	// Recycled message state, drawn from msgPool on first use and handed
	// back by Release; see msg.
	rc *recycled

	ext any // owned by a layer above mpi; see Ext
}

// NewWorld creates a world on machine m.
func NewWorld(m *cluster.Machine, opts Options) *World {
	if opts.EagerThreshold < 0 {
		panic("mpi: negative eager threshold")
	}
	return &World{machine: m, k: m.Kernel(), opts: opts, nextCtxID: 1}
}

// freelist holds objects of one kind that a world is done with, for
// reuse. World code runs single-threaded under its kernel, so it needs no
// lock. It fills lazily: it holds at most as many objects as its worlds
// once had in use at one time.
type freelist[T any] struct{ free []*T }

// get takes an object off the list, or allocates a zero one.
func (l *freelist[T]) get() *T {
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return x
}

// put hands x back; the caller has cleared what x must not keep alive.
func (l *freelist[T]) put(x *T) { l.free = append(l.free, x) }

// recycled is a world's recycled message state: the envelopes (see
// Isend and freeEnvelope), the send, receive and Get requests (see
// Request), and Ialltoallv's per-peer request lists, which are all nil
// once its poll has recycled their entries. One world uses it at a time.
type recycled struct {
	envs      freelist[envelope]
	sends     freelist[sendReq]
	recvs     freelist[recvReq]
	gets      freelist[rmaReq]
	sendLists listPool[sendReq]
	recvLists listPool[recvReq]
}

// msgPool carries recycled message state from a world that Release handed
// back to the next world that sends, so the cells one sweep worker runs in
// turn allocate their peak of requests and envelopes once rather than
// every time. The state in the pool refers to no world.
var msgPool = sync.Pool{New: func() any { return new(recycled) }}

// msg returns the world's recycled message state, drawing it from msgPool
// on first use.
func (w *World) msg() *recycled {
	if w.rc == nil {
		w.rc = msgPool.Get().(*recycled)
	}
	return w.rc
}

// Release hands the world's recycled message state to the next world.
// Call it once Kernel.Run has returned and nothing will send on the world
// again; a later send would draw fresh state. Free objects refer to
// nothing in the world (freeEnvelope clears an envelope's pointers and
// its flow, a freed request is detached and cleared, Ialltoallv's lists
// are all nil), so the state keeps no world alive. A world that is never
// released keeps its state, and costs what it did before.
func (w *World) Release() {
	if w.rc != nil {
		msgPool.Put(w.rc)
		w.rc = nil
	}
}

// listPool holds request lists whose entries are all nil, for reuse.
type listPool[T any] struct{ lists [][]*T }

// get returns a list of n nil entries, reusing the last list handed back
// when it is long enough.
func (p *listPool[T]) get(n int) []*T {
	if k := len(p.lists); k > 0 {
		l := p.lists[k-1]
		p.lists[k-1] = nil
		p.lists = p.lists[:k-1]
		if cap(l) >= n {
			return l[:n]
		}
	}
	return make([]*T, n)
}

// put hands back l, whose entries the caller has set to nil.
func (p *listPool[T]) put(l []*T) { p.lists = append(p.lists, l) }

// MsgVerdict is a fault hook's decision about one point-to-point message.
type MsgVerdict struct {
	// Drop makes the message vanish on the wire: the send completes locally
	// (the data left the send buffer) but is never delivered.
	Drop bool
	// Delay adds extra seconds before the payload enters the network.
	Delay float64
}

// FaultHooks intercepts runtime actions for deterministic fault injection.
// Implementations live outside the mpi package (see internal/fault); a nil
// hook set disables injection with a single pointer load per site.
type FaultHooks interface {
	// FilterSend is consulted once per Isend, after the send event is
	// recorded and before the message becomes visible to the receiver.
	FilterSend(src, dst *Process, tag int, comm *Comm, bytes int64) MsgVerdict
	// SpawnFailures reports how many failed attempts precede a successful
	// spawn of n processes; rank 0 pays the spawn cost once per failure.
	SpawnFailures(n int) int
}

// SetFaultHooks attaches (or, with nil, detaches) the fault-injection hooks.
func (w *World) SetFaultHooks(h FaultHooks) { w.hooks = h }

// WaveObserver is an optional extension of FaultHooks: implementations are
// told when a rank issues a memory-ceiling transfer wave, so fault plans
// can address crash and drop windows by wave index instead of wall-clock
// time (which would have to be probed per configuration).
type WaveObserver interface {
	// WaveStarted reports that the rank with world-unique id gid began
	// issuing wave index wave (1-based) of a redistribution pass. The
	// issuing rank is the data source for two-sided sends and the pulling
	// origin for one-sided Gets, so observers keep a per-rank wave phase —
	// at scale the ranks' schedules drift by more than a wave, and a single
	// global "current wave" would make per-rank fault addressing racy.
	WaveStarted(gid, wave int)
}

// AnnounceWave forwards a wave-issue notification from the rank gid to the
// fault hooks when they observe waves; a no-op otherwise.
func (w *World) AnnounceWave(gid, wave int) {
	if w.hooks == nil {
		return
	}
	if o, ok := w.hooks.(WaveObserver); ok {
		o.WaveStarted(gid, wave)
	}
}

// Machine returns the underlying cluster.
func (w *World) Machine() *cluster.Machine { return w.machine }

// Kernel returns the simulation kernel.
func (w *World) Kernel() *sim.Kernel { return w.k }

// Options returns the runtime options.
func (w *World) Options() Options { return w.opts }

// SetSink attaches (or, with nil, detaches) an arbitrary event sink: the
// full Recorder, a streaming telemetry aggregator, or a trace.Tee of
// several. Callers must not pass a non-nil interface holding a nil
// concrete pointer.
func (w *World) SetSink(s trace.Sink) { w.sink = s }

// Sink returns the attached event sink, or nil when tracing is off.
func (w *World) Sink() trace.Sink { return w.sink }

// Ext returns the world's extension slot. A layer above mpi keeps its
// per-world state there (internal/core: resilient-pass coordination and
// checkpoint files), so that state is collected with the world. mpi never
// reads it.
func (w *World) Ext() *any { return &w.ext }

// Process is one MPI process: a rank's mailbox, placement, and identity.
// Its code runs in one or more execution contexts (main thread plus any
// auxiliary threads).
type Process struct {
	w    *World
	gid  int // global id, unique in the world
	node int

	inbox    matchQueue[*envelope] // unmatched arrivals, in send order
	posted   matchQueue[*recvReq]  // unmatched receives, in post order
	progress *sim.Signal

	parent *Comm // intercomm to the group that spawned this process

	collSeq    map[int]int  // per matching context collective sequence numbers
	derivedSeq []derivedKey // per (context, kind) derivation counters; gen is the next generation

	flowsActive int                   // outgoing transfers currently on the wire
	flowQueue   matchQueue[*envelope] // sends waiting for a pipeline slot

	outEnvs []*envelope // sent envelopes whose payload has not yet arrived; outEnvs[e.outIdx] == e

	simProcs []*sim.Proc // every execution context ever started for this rank
	dead     bool        // set by KillProcess; the rank never executes again
}

// GID returns the process's world-unique id.
func (p *Process) GID() int { return p.gid }

// Parent returns the inter-communicator connecting this process to the
// group that spawned it, or nil for initially launched processes
// (MPI_Comm_get_parent).
func (p *Process) Parent() *Comm { return p.parent }

// newProcesses creates n processes, the i-th on node nodeOf(i), with the
// next n gids.
func (w *World) newProcesses(n int, nodeOf func(i int) int) []*Process {
	procs := make([]*Process, n)
	for i := range procs {
		gid := len(w.procs) + i
		procs[i] = &Process{
			w:        w,
			gid:      gid,
			node:     nodeOf(i),
			progress: sim.NewSignal(numbered("mpi.progress.g", gid)),
		}
	}
	w.procs = append(w.procs, procs...)
	return procs
}

// numbered returns prefix, n in decimal and the suffixes as one string:
// the name a rank, a thread or a progress signal carries in deadlock
// reports. It allocates only the string.
func numbered(prefix string, n int, suffix ...string) string {
	var buf [48]byte
	b := strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)
	for _, s := range suffix {
		b = append(b, s...)
	}
	return string(b)
}

// ProcessByGID returns the process with the given world-unique id, or nil.
func (w *World) ProcessByGID(gid int) *Process {
	if gid < 0 || gid >= len(w.procs) {
		return nil
	}
	return w.procs[gid]
}

// Dead reports whether the process was crashed by KillProcess.
func (p *Process) Dead() bool { return p.dead }

// KillProcess crashes the process with the given gid: every execution
// context of the rank (main thread, auxiliary threads, progression threads)
// unwinds immediately and never runs again. Messages whose payload already
// reached the destination stay delivered, but anything still in flight —
// rendezvous envelopes waiting for a match, queued sends, partially
// streamed transfers — is lost with the sender, so a pending receive for it
// never completes. It must be called from scheduler context (a kernel timer
// callback), like sim.Kill.
func (w *World) KillProcess(gid int) {
	p := w.ProcessByGID(gid)
	if p == nil || p.dead {
		return
	}
	p.dead = true
	for _, sp := range p.simProcs {
		w.k.Kill(sp)
	}
	// The walk's order cannot reach the output: it only flags each
	// envelope and removes it from its own destination's mailbox.
	for _, env := range p.outEnvs {
		env.lost = true
		// An unmatched envelope parked in the destination mailbox would
		// otherwise match a later receive and then never deliver.
		d := env.dst
		for i, e2 := range d.inbox.all() {
			if e2 == env {
				d.inbox.remove(i)
				break
			}
		}
	}
	p.outEnvs = nil
	p.flowQueue = matchQueue[*envelope]{}
	// Window-epoch barriers excuse dead members: recount each epoch and
	// wake its waiters so the arrival predicate is re-evaluated. Sorted
	// order keeps runs deterministic (map iteration would leak scheduling
	// nondeterminism).
	if len(w.winBarriers) > 0 {
		ids := make([]int, 0, len(w.winBarriers))
		for id := range w.winBarriers {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			w.winBarriers[id].recount()
			w.winBarriers[id].sig.Broadcast()
		}
	}
}

// WakeAll broadcasts every process's progress signal, giving every blocked
// wait a chance to re-evaluate its predicate. Failure detection uses it to
// let survivors notice a dead peer without a message arriving. Broadcasts
// run in gid order, which keeps the wake order deterministic.
func (w *World) WakeAll() {
	for _, p := range w.procs {
		p.progress.Broadcast()
	}
}

// newCtx builds an execution context for p on sp, registering sp so
// KillProcess can unwind every context of the rank.
func newCtx(p *Process, sp *sim.Proc) *Ctx {
	p.simProcs = append(p.simProcs, sp)
	return &Ctx{proc: p, sp: sp}
}

// Ctx is an execution context: a thread of an MPI process. All MPI
// operations are methods on Ctx so auxiliary threads (Algorithm 4) can issue
// communication on behalf of their rank.
type Ctx struct {
	proc *Process
	sp   *sim.Proc

	phase string // reconfiguration phase tag applied to recorded events

	// A context blocks in one wait at a time, so each wait reuses these
	// instead of allocating its own: Wait's condition, the state of
	// Waitall's and Waitany's (allDone and anyDone views of list), the CPU
	// load a polling wait adds, and the request list of a blocking
	// operation that waits on several of its own requests at once.
	wait waitCond
	list waitList
	load ps.Task
	reqs []Request

	// dl is the WaitUntilDeadline in progress: what it parks on is the
	// context itself under deadlineCond, and what ends it, under
	// ctxDeadline.
	dl struct {
		ready   sim.Cond
		expired bool // the deadline event has fired
		parked  bool // the pre-park test of this park has run
	}

	// use is what Compute and Use block on while a resource serves them.
	use ps.Waiter
}

// Proc returns the MPI process this context belongs to.
func (c *Ctx) Proc() *Process { return c.proc }

// SimProc returns the underlying simulation process.
func (c *Ctx) SimProc() *sim.Proc { return c.sp }

// World returns the owning world.
func (c *Ctx) World() *World { return c.proc.w }

// Now reports the current virtual time.
func (c *Ctx) Now() float64 { return c.sp.Now() }

// SetPhase tags subsequently recorded events of this context with a
// reconfiguration phase (see the trace.Phase* constants); the empty string
// is application traffic. Phases are per execution context, so an
// auxiliary redistribution thread and its rank's main thread can carry
// different tags concurrently.
func (c *Ctx) SetPhase(phase string) { c.phase = phase }

// Phase returns the context's current phase tag.
func (c *Ctx) Phase() string { return c.phase }

// span opens a trace span of the given kind and returns its closer. When
// tracing is off it returns a shared no-op closure, keeping the disabled
// path allocation-free.
func (c *Ctx) span(kind trace.EventKind, comm int, op string, bytes int64) func() {
	rec := c.proc.w.sink
	if rec == nil {
		return noopSpanEnd
	}
	start := c.sp.Now()
	return func() {
		rec.Record(trace.Event{
			Kind: kind, Rank: c.proc.gid, Start: start, End: c.sp.Now(),
			Peer: -1, Tag: -1, Comm: comm, Bytes: bytes, Op: op, Phase: c.phase,
		})
	}
}

var noopSpanEnd = func() {}

// cpu returns the CPU resource of the context's node.
func (c *Ctx) cpu() *ps.Resource { return c.proc.w.machine.CPU(c.proc.node) }

// Compute consumes seconds of single-core CPU work under processor sharing
// (so it dilates when the node is oversubscribed).
func (c *Ctx) Compute(seconds float64) {
	if seconds <= 0 {
		return
	}
	end := c.span(trace.EvCompute, -1, "compute", 0)
	c.Use(c.cpu(), seconds)
	end()
}

// Use consumes work units of r's service (a node's CPU, the checkpoint
// filesystem) under processor sharing, blocking the context on a waiter
// of its own.
func (c *Ctx) Use(r *ps.Resource, work float64) { r.Use(&c.use, c.sp, work) }

// Sleep advances virtual time without consuming CPU.
func (c *Ctx) Sleep(seconds float64) { c.sp.Sleep(seconds) }

// Oversubscription reports the node's current load factor above capacity:
// 0 when runnable contexts fit the cores, (load/cores - 1) otherwise.
func (c *Ctx) Oversubscription() float64 {
	cpu := c.cpu()
	f := float64(cpu.Load())/cpu.Capacity() - 1
	if f < 0 {
		return 0
	}
	return f
}

// schedPenalty returns the expected rescheduling delay for one lock-step
// synchronization on an oversubscribed node.
func (c *Ctx) schedPenalty() float64 {
	return c.proc.w.opts.SchedQuantum * c.Oversubscription()
}

// chargeCopy accounts the CPU cost of packing/unpacking size bytes.
func (c *Ctx) chargeCopy(size int64) {
	rate := c.proc.w.opts.CopyRate
	if rate <= 0 || size <= 0 {
		return
	}
	c.Compute(float64(size) / rate)
}

// NewThread starts an auxiliary thread of the same MPI process: a new
// execution context on the same node, sharing the rank's mailbox. It
// returns immediately; fn runs concurrently in virtual time.
func (c *Ctx) NewThread(name string, fn func(t *Ctx)) {
	p := c.proc
	p.w.k.Spawn(numbered("g", p.gid, ".", name), func(sp *sim.Proc) {
		fn(newCtx(p, sp))
	})
}

// Launch starts n MPI processes running main and returns their world
// communicator. nodeOf maps each rank to a node; if nil, the machine's
// block placement is used. Launch may be called before kernel.Run or from
// scheduler context.
func (w *World) Launch(n int, nodeOf func(rank int) int, main func(c *Ctx, comm *Comm)) *Comm {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: Launch(%d)", n))
	}
	if nodeOf == nil {
		nodeOf = w.machine.NodeOf
	}
	procs := w.newProcesses(n, nodeOf)
	comm := w.newComm(procs, nil)
	for r, p := range procs {
		p := p
		r := r
		w.k.Spawn(numbered("rank", r), func(sp *sim.Proc) {
			main(newCtx(p, sp), comm)
		})
	}
	return comm
}

// waitUntilDesc blocks the context until cond holds, waking on the
// process's progress signal. The wait polls, as MPICH's does: it occupies
// a core until cond holds. It parks through sim.Proc.WaitUntil, so a wake
// that finds cond still false re-parks inside the kernel without resuming
// the context; cond must therefore be pure (see sim.Cond). Deadlock
// reports describe the operation still pending rather than just the
// progress signal: desc renders it when non-nil, and a nil desc leaves it
// to cond's String (the condition objects of Wait, Waitall and Waitany).
// Either is called only when a report is built. Every change to the state it reads (a request
// completing) is followed by a Broadcast on the progress signal, and a
// report is built only once every wake has run, so it renders what the
// last park would have.
func (c *Ctx) waitUntilDesc(cond sim.Cond, desc func() string) {
	if cond.Done() {
		return
	}
	c.cpu().StartLoad(&c.load)
	defer c.load.Stop()
	c.sp.WaitUntil(c.proc.progress, cond, desc)
}

// WaitUntil blocks the context until cond holds, waking on the process's
// progress signal (any message delivery, send completion, or World.WakeAll).
// A cond that implements fmt.Stringer describes the wait in deadlock
// reports, formatted only when a report is built. The wait polls, so it
// occupies a core. cond is tested in scheduler context after each wake, so
// it must not block or schedule (no sends, no Compute, no Broadcast): it may
// only read state. A predicate that drives the protocol belongs in
// WaitUntilDeadline.
func (c *Ctx) WaitUntil(cond sim.Cond) {
	c.waitUntilDesc(cond, nil)
}

// WaitUntilDeadline runs step until it reports true or the virtual clock
// reaches deadline, and returns step's last report. The resilient
// redistribution protocol uses it to bound epochs: a false return is the
// timeout that triggers failure probing.
//
// The wait is split in two. step runs in the waiting context, first at
// once and then after each wake that lets it act, so it may compute and
// send: the resilient drive advances its transfer there. ready is the
// pure half (see sim.Cond): the kernel tests it on each wake of the
// context's progress signal, and while neither it nor the deadline holds
// the context stays parked instead of being resumed. ready must therefore
// hold whenever step would do anything or report true; a ready that holds
// more often only costs resumes, one that misses an action loses a wake
// until the deadline. A wake that ready turns away re-parks where the
// context's own re-park would have put it, so every event order and
// output is that of resuming step on every wake. A deadline wait never
// shows in a deadlock report: its deadline event stays pending while it is
// parked.
//
// step must not wait (Wait, Waitall, Waitany, WaitUntil,
// WaitUntilDeadline): the deadline wait holds the context's own polling
// load, deadline event and condition, which is why it allocates nothing,
// and a nested wait would restart them.
func (c *Ctx) WaitUntilDeadline(ready sim.Cond, step func() bool, deadline float64) bool {
	if step() {
		return true
	}
	w := c.proc.w
	if deadline <= w.k.Now() {
		return false
	}
	c.dl.ready, c.dl.expired = ready, false
	defer func() { c.dl.ready = nil }()
	t := w.k.AtHandler(deadline, (*ctxDeadline)(c))
	defer t.Cancel()
	c.cpu().StartLoad(&c.load)
	defer c.load.Stop()
	for {
		if step() {
			return true
		}
		if c.dl.expired || w.k.Now() >= deadline {
			return step()
		}
		c.dl.parked = false
		c.sp.WaitUntil(c.proc.progress, (*deadlineCond)(c), nil)
	}
}

// deadlineCond is the condition a WaitUntilDeadline parks on: the context
// itself, under a type whose Done holds once the deadline event has fired
// or the wait's readiness holds. A wake at or past the deadline always
// follows the deadline event: a wake is stamped when its Broadcast runs,
// after the deadline was armed.
type deadlineCond Ctx

func (d *deadlineCond) Done() bool {
	c := (*Ctx)(d)
	if !c.dl.parked {
		// sim.Proc.WaitUntil's test before it parks. step has just run
		// and found nothing it could finish, so the context parks
		// whatever ready says, as it always has: a completion step could
		// not see (one that landed while it computed) waits for the next
		// wake.
		c.dl.parked = true
		return false
	}
	return c.dl.expired || c.dl.ready.Done()
}

// ctxDeadline is the event that ends a WaitUntilDeadline: the context
// itself, under a type whose Fire flags the expiry and wakes the wait.
type ctxDeadline Ctx

func (d *ctxDeadline) Fire() {
	c := (*Ctx)(d)
	c.dl.expired = true
	c.proc.progress.Broadcast()
}
