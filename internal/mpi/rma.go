package mpi

import (
	"fmt"
	"math"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Win is a one-sided communication window (MPI_Win): every member of the
// communicator exposes a local payload region that peers read with Get,
// without the exposing process participating in each transfer — the
// defining property of RMA, and the reason the paper's future work (§5)
// proposes it for data redistribution: the origin pulls data while the
// target's CPU stays out of the path.
type Win struct {
	comm *Comm

	exposed map[int]Payload // by process gid
}

// winBarrier synchronizes window epochs (WinCreate, Fence). Unlike the
// counter-based fastBarrier it tracks per-member arrivals, which buys two
// fault properties: a crashed member is excused instead of wedging every
// survivor forever, and a waiter carries a reason naming the operation,
// the communicator, and the member it is waiting for — so a genuine wedge
// surfaces in DeadlockError reports with the same diagnostic quality the
// point-to-point Wait path gives.
//
// gen is the lowest generation some live member has not arrived at, and
// pending counts the live members still owing it, so a waiter's test is
// O(1). An arrival updates them in O(1), plus one recount when pending
// reaches zero; a crash recounts. Every arrival and every crash still
// broadcasts, keeping the wake sequence of a per-waiter rescan; a wake
// that leaves the waiter's generation incomplete re-parks it inside the
// kernel instead of resuming it.
type winBarrier struct {
	members  []*Process
	arrivals map[int]*epochWait // gid -> the member's arrivals and wait
	ctxID    int                // the communicator's matching context
	gen      int
	pending  int
	sig      *sim.Signal
}

// epochWait is one member's state at a winBarrier: how often it has
// arrived, and the condition of its wait, which also describes it in
// deadlock reports. It is made at the member's first arrival and reused,
// so an arrival allocates nothing.
type epochWait struct {
	b       *winBarrier
	arrived int
	op      string // the epoch operation of the latest arrival
}

// Done reports whether every live member has arrived as often as this one.
// The member cannot arrive again while it waits, so its generation is
// arrived-1.
func (e *epochWait) Done() bool { return e.b.gen >= e.arrived }

// String names the first live member that has not reached this wait's
// generation, at report time.
func (e *epochWait) String() string {
	b := e.b
	for _, m := range b.members {
		if !m.dead && b.arrived(m.gid) < e.arrived {
			return fmt.Sprintf("mpi: %s on comm %d: waiting for g%d", e.op, b.ctxID, m.gid)
		}
	}
	return ""
}

// winBarrierFor returns the window-epoch barrier shared by all windows and
// fences on comm's matching context.
func (w *World) winBarrierFor(comm *Comm) *winBarrier {
	if w.winBarriers == nil {
		w.winBarriers = make(map[int]*winBarrier)
	}
	b, ok := w.winBarriers[comm.ctxID]
	if !ok {
		members := make([]*Process, 0, comm.groupSpan())
		members = append(members, comm.local...)
		members = append(members, comm.remote...)
		b = &winBarrier{
			members:  members,
			arrivals: make(map[int]*epochWait, len(members)),
			ctxID:    comm.ctxID,
			sig:      newNamedSignal(comm, "winbarrier"),
		}
		b.recount()
		w.winBarriers[comm.ctxID] = b
	}
	return b
}

// arrived reports how often the member gid has arrived.
func (b *winBarrier) arrived(gid int) int {
	if e := b.arrivals[gid]; e != nil {
		return e.arrived
	}
	return 0
}

// recount recomputes gen and pending from the live members' arrivals.
func (b *winBarrier) recount() {
	b.gen, b.pending = math.MaxInt, 0
	for _, m := range b.members {
		a := b.arrived(m.gid)
		if m.dead || a > b.gen {
			continue
		}
		if a < b.gen {
			b.gen, b.pending = a, 0
		}
		b.pending++
	}
}

// arrive completes this context's generation of the barrier: it returns
// once every member has arrived at least as often — or died. op names the
// epoch operation for deadlock reports.
func (b *winBarrier) arrive(c *Ctx, op string) {
	gid := c.proc.gid
	e := b.arrivals[gid]
	if e == nil {
		e = &epochWait{b: b}
		b.arrivals[gid] = e
	}
	gen := e.arrived
	e.arrived++
	e.op = op
	if gen == b.gen {
		if b.pending--; b.pending == 0 {
			b.recount()
		}
	}
	b.sig.Broadcast()
	c.sp.WaitUntil(b.sig, e, nil)
}

// WinCreate collectively creates a window over comm, exposing this
// process's local payload. Every member (both groups of an
// inter-communicator) must call it; the call synchronizes, so once it
// returns every live member's exposure is visible. A member that crashed
// is excused from the epoch — its exposure is simply absent.
func (c *Ctx) WinCreate(comm *Comm, local Payload) *Win {
	w := comm.w
	key := derivedKey{ctxID: comm.ctxID, kind: "win", gen: comm.derivedGen(c, "win")}
	if w.wins == nil {
		w.wins = make(map[derivedKey]*Win)
	}
	win, ok := w.wins[key]
	if !ok {
		win = &Win{comm: comm, exposed: make(map[int]Payload)}
		w.wins[key] = win
	}
	gid := c.proc.gid
	win.exposed[gid] = clonePayload(local)
	// Exposure epoch: every live member registers before anyone accesses.
	w.winBarrierFor(comm).arrive(c, "WinCreate")
	return win
}

// rmaReq is a one-sided Get request. A Get in flight is driven by the
// request itself: it is the handler that ends the read request's latency
// (getLatency) and the done handler of the data's transfer (getDone),
// which it owns. Like the send and receive requests, it comes off the
// world's freelist, and Free hands it back.
type rmaReq struct {
	reqState
	payload Payload

	src     int // exposer gid
	comm    int // matching-context id
	bytes   int64
	dropped bool // the RDMA read vanished on the wire (fault injection)

	// Set while the Get is in flight (cleared when its data lands): both
	// ends, the bytes read, the issue time and the issuer's phase tag for
	// the delivery event, and the data's transfer.
	origin *Process
	tp     *Process
	data   Payload
	issued float64
	phase  string
	flow   netmodel.Flow
}

func (*rmaReq) kind() string { return "Get" }

func (r *rmaReq) describe() string {
	if r.dropped {
		return fmt.Sprintf("Get from g%d comm=%d bytes=%d (lost on the wire)", r.src, r.comm, r.bytes)
	}
	return fmt.Sprintf("Get from g%d comm=%d bytes=%d", r.src, r.comm, r.bytes)
}

// freeGet recycles a done Get request. Its done handler (getDone) has
// cleared the in-flight ends and data, so clearing the payload and the
// finished flow leaves it referring to nothing; Get sets every other
// field it reads.
func (w *World) freeGet(r *rmaReq) {
	r.reset()
	r.payload, r.dropped, r.phase, r.flow = Payload{}, false, "", netmodel.Flow{}
	w.msg().gets.put(r)
}

// Get starts a one-sided read of bytes [lo, hi) from the window region
// exposed by peer rank target (the remote group on an inter-communicator).
// The transfer streams from the target's node without any action by the
// target process; completion is local to the origin.
//
// The RDMA read is interceptable like any message: fault hooks see it as
// exposer→origin traffic carrying the one-sided sentinel tag -1, so drop
// and delay rules (and link degradation, which acts on the underlying
// fabric transfer) apply. A dropped Get never completes — the origin's
// epoch deadline turns it into the same detectable failure evidence a
// dropped point-to-point message produces. A Get addressed to a member
// that died before exposing likewise returns a request that never
// completes, rather than panicking: reading revoked memory is a fault,
// not a programming error.
func (c *Ctx) Get(win *Win, target int, lo, hi int64) Request {
	tp := win.comm.peerProcFor(c, target)
	exp, ok := win.exposed[tp.gid]
	if !ok && !tp.dead {
		panic(fmt.Sprintf("mpi: Get from rank %d which exposed nothing", target))
	}
	if ok && (lo < 0 || hi < lo || hi > exp.Size) {
		panic(fmt.Sprintf("mpi: Get [%d,%d) outside exposed %d bytes", lo, hi, exp.Size))
	}
	origin := c.proc
	w := origin.w
	req := w.msg().gets.get()
	req.op = req
	req.src, req.comm, req.bytes = tp.gid, win.comm.ctxID, hi-lo
	if !ok {
		req.dropped = true
		return req.handle()
	}
	var delay float64
	if w.hooks != nil {
		verdict := w.hooks.FilterSend(tp, origin, -1, win.comm, hi-lo)
		if verdict.Drop {
			// The read request (or its response) vanishes: no data ever
			// lands.
			req.dropped = true
			return req.handle()
		}
		delay = verdict.Delay
	}
	// Get completes in a kernel callback; keep the issuer's phase tag.
	req.origin, req.tp, req.data = origin, tp, exp.Slice(lo, hi)
	req.issued, req.phase = c.sp.Now(), c.phase
	// One extra control latency for the RDMA read request, then the data
	// flows back. The RDMA engine bypasses the sender-side pipeline and
	// pays no scheduling delay: no remote CPU is involved.
	lat := w.machine.Fabric().Params().Latency
	if tp.node == origin.node {
		lat = w.machine.Fabric().Params().IntraLatency
	}
	w.k.AfterHandler(lat+delay, (*getLatency)(req))
	return req.handle()
}

// getLatency ends a Get's read-request latency: the request itself, under
// a type whose Fire starts the data flowing back.
type getLatency rmaReq

func (l *getLatency) Fire() {
	r := (*rmaReq)(l)
	r.origin.w.machine.Fabric().Start(&r.flow, r.tp.node, r.origin.node, r.bytes, (*getDone)(r))
}

// getDone is the done handler of a Get's data transfer: the request
// itself, under a type whose Fire delivers it.
type getDone rmaReq

func (d *getDone) Fire() {
	r := (*rmaReq)(d)
	origin, gid, data := r.origin, r.src, r.data
	r.origin, r.tp, r.data = nil, nil, Payload{}
	if origin.dead {
		// A crashed origin takes no delivery: no completion, no event, no
		// progress broadcast.
		return
	}
	r.payload = data
	r.done = true
	w := origin.w
	if rec := w.sink; rec != nil {
		rec.Record(trace.Event{
			Kind: trace.EvRecv, Rank: origin.gid, Start: r.issued, End: w.k.Now(),
			Peer: gid, Tag: -1, Comm: r.comm,
			Bytes: r.bytes, Op: "Get", Phase: r.phase,
		})
	}
	origin.progress.Broadcast()
	if r.freed {
		w.freeGet(r)
	}
}

// Fence synchronizes every live window member (an access epoch boundary,
// MPI_Win_fence). All members must call it; crashed members are excused.
func (c *Ctx) Fence(win *Win) {
	defer c.span(trace.EvBarrier, win.comm.ctxID, "Fence", 0)()
	win.comm.w.winBarrierFor(win.comm).arrive(c, "Fence")
}

// peerProcFor resolves peer rank r from the calling context's view of the
// communicator. For a window created over an inter-communicator, callers
// from either side address the other side.
func (comm *Comm) peerProcFor(c *Ctx, r int) *Process {
	// The window stores one comm handle; a caller from the remote group of
	// that handle addresses the handle's local group.
	if comm.rankOf(c.proc.gid) >= 0 || comm.remote == nil {
		return comm.peerProc(r)
	}
	if r < 0 || r >= len(comm.local) {
		panic(fmt.Sprintf("mpi: peer rank %d out of range [0,%d)", r, len(comm.local)))
	}
	return comm.local[r]
}
