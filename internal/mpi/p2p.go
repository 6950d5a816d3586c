package mpi

import (
	"fmt"

	"repro/internal/netmodel"
	"repro/internal/trace"
)

// Wildcards for receive matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Status describes a completed receive.
type Status struct {
	Source int // sender's rank as seen by the receiver
	Tag    int
	Size   int64
}

// Request is a handle to a pending operation, returned by value: a
// pointer to the operation's state plus the generation it had when the
// handle was made, the way sim.Timer is. Copying one allocates nothing,
// and handles compare equal when they name the same operation.
//
// The zero Request is the null request (MPI_REQUEST_NULL): it reads as
// done, has an empty payload, and Waitany skips it.
//
// The requests that Isend, Irecv and Get return come from the world's
// recycled message state. Free hands one back (MPI_Request_free): at once
// when it is complete, or at its completion when it is still pending.
// Either way Free bumps the request's generation, so the handle goes
// stale, and any later use of it (Done, Payload, Wait, Free, ...) panics
// and names the request. A request that is never freed is left to the
// garbage collector.
type Request struct {
	s   *reqState
	gen uint32
}

// reqState is the state every request kind shares. It heads each kind's
// struct, and op points back at that struct, for descriptions and to
// recycle it.
type reqState struct {
	op       reqOp
	gen      uint32 // bumped each time the request is freed
	done     bool
	consumed bool // Waitany returned it
	freed    bool // Free was called while it was pending
}

// reqOp is a request kind: the struct a reqState heads.
type reqOp interface {
	// kind names the operation that made the request.
	kind() string
	// describe names the pending operation for deadlock reports.
	describe() string
}

// handle returns a handle to the request in its current generation.
func (s *reqState) handle() Request { return Request{s: s, gen: s.gen} }

// reset readies a complete request for reuse, making every handle to it
// stale.
func (s *reqState) reset() {
	if !s.done {
		panic("mpi: recycling a pending " + s.op.kind() + " request")
	}
	s.gen++
	s.done, s.consumed, s.freed = false, false, false
}

// state returns the request's state, or nil for the null request. It
// panics, naming the request and the operation use, when the handle is
// stale.
func (r Request) state(use string) *reqState {
	s := r.s
	if s != nil && s.gen != r.gen {
		panic(fmt.Sprintf("mpi: %s on a freed %s request (handle generation %d, request now at %d)",
			use, s.op.kind(), r.gen, s.gen))
	}
	return s
}

// IsNull reports whether r is the null request.
func (r Request) IsNull() bool { return r.s == nil }

// Done reports whether the operation has completed. The null request is
// always done.
func (r Request) Done() bool {
	s := r.state("Done")
	if s == nil || s.done {
		return true
	}
	if a, ok := s.op.(*alltoallvReq); ok {
		return a.poll()
	}
	return false
}

// Payload returns the received payload of a complete Irecv or Get, and
// an empty one for the null request.
func (r Request) Payload() Payload {
	s := r.state("Payload")
	if s == nil {
		return Payload{}
	}
	switch q := s.op.(type) {
	case *recvReq:
		return q.payload
	case *rmaReq:
		return q.payload
	}
	panic("mpi: Payload of a " + s.op.kind() + " request, which receives nothing")
}

// consumed reports whether Waitany must skip r: it is null, or Waitany
// already returned it.
func (r Request) consumed() bool {
	s := r.state("Waitany")
	return s == nil || s.consumed
}

// describe names the pending operation for deadlock reports.
func (r Request) describe() string { return r.s.op.describe() }

// Free releases the request (MPI_Request_free). A complete request is
// recycled at once; a pending one completes as usual, and its completion
// recycles it. The handle is stale from here on. Freeing the null request
// does nothing.
func (c *Ctx) Free(r Request) {
	s := r.state("Free")
	if s == nil {
		return
	}
	if !s.done {
		s.gen++
		s.freed = true
		return
	}
	c.proc.w.free(s)
}

// free recycles the complete request s into the world's message state.
// Ialltoallv requests are not pooled: freeing one only makes its handles
// stale.
func (w *World) free(s *reqState) {
	switch q := s.op.(type) {
	case *sendReq:
		w.freeSend(q)
	case *recvReq:
		w.freeRecv(q)
	case *rmaReq:
		w.freeGet(q)
	default:
		s.reset()
	}
}

// wildName renders a source or tag wildcard for operation descriptions.
func wildName(v int) string {
	if v < 0 {
		return "any"
	}
	return fmt.Sprintf("%d", v)
}

// tagName renders a tag for operation descriptions, flagging the reserved
// collective range so deadlock reports distinguish a hung collective from a
// hung user-level exchange.
func tagName(t int) string {
	if t >= collTagBase {
		return fmt.Sprintf("%d(coll)", t)
	}
	return wildName(t)
}

// sendReq is a send request. It completes when the payload has been
// delivered into the destination mailbox.
//
// Every request comes off the world's freelist and goes back to it once
// its owner frees it, and MPI's ownership rule says who that is. A
// request that Isend, Irecv or Get returns belongs to the caller, who
// hands it back with Ctx.Free; one the caller never frees is left to the
// garbage collector. A request that an mpi operation makes for itself
// (isend, irecv: the per-peer requests of collectives, barriers, Send,
// Recv and Sendrecv) belongs to that operation, which recycles it once it
// sees it complete. Recycling a complete request is safe because a
// request is detached when it completes: once done, no envelope, mailbox
// or posted queue refers to it. A pending request that its caller freed
// is recycled by its completion, after the last reference to it is gone.
type sendReq struct {
	reqState
	env *envelope
}

func (*sendReq) kind() string { return "Isend" }

func (r *sendReq) describe() string {
	if r.env == nil {
		return "Isend (dropped)"
	}
	e := r.env
	return fmt.Sprintf("Isend to g%d tag=%s comm=%d bytes=%d", e.dst.gid, tagName(e.tag), e.comm.ctxID, e.payload.Size)
}

// recvReq is a receive request.
type recvReq struct {
	reqState
	owner   *Process
	comm    *Comm
	src     int // wanted source rank or AnySource
	tag     int // wanted tag or AnyTag
	status  Status
	payload Payload
	phase   string // posting context's phase tag, for the delivery event
}

func (*recvReq) kind() string { return "Irecv" }

func (r *recvReq) describe() string {
	return fmt.Sprintf("Irecv src=%s tag=%s comm=%d", wildName(r.src), tagName(r.tag), r.comm.ctxID)
}

// envelope is a message in flight or parked in a mailbox.
type envelope struct {
	comm    *Comm
	sender  *Process
	dst     *Process
	srcRank int // as the receiver sees it
	tag     int
	payload Payload

	eager     bool
	dataReady bool
	queued    bool
	launching bool    // transfer launched or deferred on a timer; never relaunch
	lost      bool    // sender crashed before the payload arrived
	delay     float64 // injected extra latency before the payload moves
	outIdx    int     // position in sender.outEnvs until the payload arrives
	sreq      *sendReq
	rreq      *recvReq

	// The payload's transfer, started in place and kept across recycling.
	// Its done handler is the envelope itself (envFlowDone).
	flow netmodel.Flow
}

// freeEnvelope recycles a fully delivered envelope. Only complete() may
// call it, after detaching the envelope from its requests: at that point
// the payload and status have been handed to the receive request, the
// sender's outEnvs entry is gone, and no mailbox or queue holds the
// pointer. Lost or dropped envelopes are never recycled — the garbage
// collector takes them. The pointers are cleared, so the free envelope
// keeps nothing alive and Release can hand it to another world; Isend
// sets every other field. The flow is finished, and the fabric no longer
// reads it once its done handler (this call's caller) has run.
func (w *World) freeEnvelope(e *envelope) {
	e.comm, e.sender, e.dst = nil, nil, nil
	e.payload.Data = nil
	e.sreq, e.rreq = nil, nil
	e.flow = netmodel.Flow{}
	w.msg().envs.put(e)
}

// freeSend recycles a done send request. Done implies detached, so there
// is nothing to clear.
func (w *World) freeSend(s *sendReq) {
	s.reset()
	w.msg().sends.put(s)
}

// freeRecv recycles a done receive request, once its owner has read its
// payload and status. It clears the pointers; irecv and complete set
// every other field. Field writes, not a struct literal: keeping the
// reqState would build the literal aside and copy it in.
func (w *World) freeRecv(r *recvReq) {
	r.reset()
	r.owner, r.comm, r.payload, r.phase = nil, nil, Payload{}, ""
	w.msg().recvs.put(r)
}

func (e *envelope) matches(r *recvReq) bool {
	if e.comm.ctxID != r.comm.ctxID {
		return false
	}
	if r.src != AnySource && r.src != e.srcRank {
		return false
	}
	if r.tag != AnyTag && r.tag != e.tag {
		return false
	}
	return true
}

// Isend posts a non-blocking send of payload to peer rank dst with the
// given tag. On an inter-communicator dst indexes the remote group.
// Messages up to the eager threshold start moving immediately; larger ones
// wait for a matching receive (rendezvous).
func (c *Ctx) Isend(comm *Comm, dst, tag int, payload Payload) Request {
	return c.isend(comm, dst, tag, payload).handle()
}

// isend posts the send behind Isend into a request off the world's
// freelist. An mpi operation that calls it owns the request: it waits for
// it and hands it back with freeSend.
func (c *Ctx) isend(comm *Comm, dst, tag int, payload Payload) *sendReq {
	if comm.Rank(c) < 0 {
		panic(fmt.Sprintf("mpi: Isend by non-member g%d", c.proc.gid))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: Isend with negative tag %d", tag))
	}
	w := c.proc.w
	s := w.msg().sends.get()
	s.op = s
	dstProc := comm.peerProc(dst)
	c.chargeCopy(payload.Size) // pack

	if rec := w.sink; rec != nil {
		now := c.sp.Now()
		rec.Record(trace.Event{
			Kind: trace.EvSend, Rank: c.proc.gid, Start: now, End: now,
			Peer: dstProc.gid, Tag: tag, Comm: comm.ctxID,
			Bytes: payload.Size, Op: "Isend", Phase: c.phase,
		})
	}

	var verdict MsgVerdict
	if h := w.hooks; h != nil {
		verdict = h.FilterSend(c.proc, dstProc, tag, comm, payload.Size)
	}
	if verdict.Drop {
		// The message vanishes on the wire: the sender observes a normal
		// local completion, the receiver never sees anything.
		s.done = true
		return s
	}

	// The envelope comes off the world's freelist: envelopes are the
	// per-message hot-path allocation, and recycling them keeps a sweep
	// cell's steady-state garbage near zero. Field writes rather than a
	// struct literal, which would build the envelope aside and copy it in.
	// Every field but the flow is set.
	env := w.msg().envs.get()
	env.comm, env.sender, env.dst = comm, c.proc, dstProc
	env.srcRank, env.tag = comm.senderRank(c.proc), tag
	env.payload = clonePayload(payload)
	env.eager = payload.Size <= w.opts.EagerThreshold
	env.dataReady, env.queued, env.launching, env.lost = false, false, false, false
	env.delay = verdict.Delay
	env.outIdx = len(c.proc.outEnvs)
	env.sreq, env.rreq = s, nil
	s.env = env
	c.proc.outEnvs = append(c.proc.outEnvs, env)

	// Matching follows MPI's non-overtaking rule: the envelope becomes
	// visible to the receiver immediately, in send order.
	if r := dstProc.matchPosted(env); r != nil {
		env.rreq = r
	} else {
		dstProc.inbox.push(env)
	}
	if env.eager || env.rreq != nil {
		env.startFlow()
	}
	return s
}

// startFlow launches the network transfer for the envelope's payload, or
// queues it when the sender's pipeline is full.
func (e *envelope) startFlow() {
	if e.queued || e.launching {
		return
	}
	s := e.sender
	if max := s.w.opts.MaxInFlight; max > 0 && s.flowsActive >= max {
		e.queued = true
		s.flowQueue.push(e)
		return
	}
	e.launchFlow()
}

func (e *envelope) launchFlow() {
	s := e.sender
	e.launching = true
	s.flowsActive++
	// Starting a transfer needs the sender's progress engine scheduled; on
	// an oversubscribed node (Baseline reconfigurations, polling auxiliary
	// threads) that costs a slice of the scheduler quantum. This is the
	// mechanism behind the paper's iteration-cost inflation and the higher
	// α of the thread-based strategies.
	w := s.w
	if q := w.opts.SchedQuantum; q > 0 {
		cpu := w.machine.CPU(s.node)
		over := float64(cpu.Load())/cpu.Capacity() - 1
		if over > 0 {
			delay := q * over * 0.5
			w.k.AfterHandler(delay, (*envLaunch)(e))
			return
		}
	}
	e.launchFlowNow()
}

// envLaunch is the event of a deferred launch: the envelope itself, under
// a type whose Fire launches its flow.
type envLaunch envelope

func (l *envLaunch) Fire() { (*envelope)(l).launchFlowNow() }

func (e *envelope) launchFlowNow() {
	s := e.sender
	if e.lost {
		return
	}
	if d := e.delay; d > 0 {
		e.delay = 0
		s.w.k.AfterHandler(d, (*envLaunch)(e))
		return
	}
	s.w.machine.Fabric().Start(&e.flow, s.node, e.dst.node, e.payload.Size, (*envFlowDone)(e))
}

// envFlowDone is the done handler of the payload's transfer: the envelope
// itself, under a type whose Fire delivers it.
type envFlowDone envelope

func (d *envFlowDone) Fire() { (*envelope)(d).onFlowDone() }

// onFlowDone runs when the payload's last byte arrives.
func (e *envelope) onFlowDone() {
	if e.lost {
		// The sender crashed mid-stream: the partial payload is garbage
		// and the message never completes on either side.
		return
	}
	s := e.sender
	e.dataReady = true
	s.dropOutEnv(e)
	s.flowsActive--
	s.drainFlowQueue()
	// An eager send completes locally once the data has left, whether or
	// not a receive has matched; a rendezvous send completes with the
	// delivery (it only started once matched). A done request is detached
	// at once: its owner may recycle it while the envelope still waits in
	// the mailbox for a receive.
	if e.eager {
		sr := e.sreq
		sr.done = true
		sr.env = nil
		e.sreq = nil
		s.progress.Broadcast()
		if sr.freed {
			s.w.freeSend(sr)
		}
	}
	e.complete()
}

// dropOutEnv removes e from p.outEnvs in O(1) by swapping the last entry
// into its place.
func (p *Process) dropOutEnv(e *envelope) {
	last := len(p.outEnvs) - 1
	moved := p.outEnvs[last]
	p.outEnvs[e.outIdx], moved.outIdx = moved, e.outIdx
	p.outEnvs[last] = nil
	p.outEnvs = p.outEnvs[:last]
}

// drainFlowQueue starts queued sends while pipeline slots are free.
func (p *Process) drainFlowQueue() {
	max := p.w.opts.MaxInFlight
	for len(p.flowQueue.all()) > 0 && (max <= 0 || p.flowsActive < max) {
		e := p.flowQueue.all()[0]
		p.flowQueue.remove(0)
		e.queued = false
		e.launchFlow()
	}
}

// complete finishes the send/recv pair once data has arrived and a receive
// is matched.
func (e *envelope) complete() {
	if !e.dataReady || e.rreq == nil {
		return
	}
	r := e.rreq
	r.payload = e.payload
	r.status = Status{Source: e.srcRank, Tag: e.tag, Size: e.payload.Size}
	r.done = true
	if rec := e.comm.w.sink; rec != nil {
		now := e.comm.w.k.Now()
		rec.Record(trace.Event{
			Kind: trace.EvRecv, Rank: r.owner.gid, Start: now, End: now,
			Peer: e.sender.gid, Tag: e.tag, Comm: e.comm.ctxID,
			Bytes: e.payload.Size, Op: "recv", Phase: r.phase,
		})
	}
	r.owner.progress.Broadcast()
	w := e.comm.w
	if r.freed {
		w.freeRecv(r)
	}
	if s := e.sreq; s != nil { // a rendezvous send; an eager one is detached
		s.done = true
		s.env = nil
		e.sender.progress.Broadcast()
		if s.freed {
			w.freeSend(s)
		}
	}
	// The pair is finished on both sides; recycle the envelope, which
	// detaches the receive request.
	w.freeEnvelope(e)
}

// matchPosted scans the process's posted receives for the first match, in
// post order, removing and returning it.
func (p *Process) matchPosted(env *envelope) *recvReq {
	for i, r := range p.posted.all() {
		if env.matches(r) {
			p.posted.remove(i)
			return r
		}
	}
	return nil
}

// matchQueue is a mailbox or posted-receive queue in match order, or a
// send pipeline's queue in FIFO order. Matches are mostly at the head, so
// removing the head costs O(1): the live items are items[head:], and the
// backing array is reused from its start once the queue empties.
type matchQueue[T any] struct {
	items []T
	head  int
}

// all returns the live items in order; the slice is valid until the next
// push or remove.
func (q *matchQueue[T]) all() []T { return q.items[q.head:] }

func (q *matchQueue[T]) push(x T) {
	// Compact a full array whose dead prefix outnumbers the live items
	// rather than grow it; each compaction copies fewer items than were
	// removed since the last, so pushes stay amortized O(1).
	if live := len(q.items) - q.head; len(q.items) == cap(q.items) && q.head >= live {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, x)
}

// remove deletes the i-th live item, keeping the order of the rest.
func (q *matchQueue[T]) remove(i int) {
	var zero T
	if i == 0 {
		q.items[q.head] = zero
		q.head++
		if q.head == len(q.items) {
			q.items, q.head = q.items[:0], 0
		}
		return
	}
	i += q.head
	copy(q.items[i:], q.items[i+1:])
	q.items[len(q.items)-1] = zero
	q.items = q.items[:len(q.items)-1]
}

// Irecv posts a non-blocking receive for a message on comm from source
// rank src (or AnySource) with tag (or AnyTag).
func (c *Ctx) Irecv(comm *Comm, src, tag int) Request {
	return c.irecv(comm, src, tag).handle()
}

// irecv posts the receive behind Irecv into a request off the world's
// freelist. An mpi operation that calls it owns the request: it waits for
// it, reads its payload and status, and hands it back with freeRecv.
func (c *Ctx) irecv(comm *Comm, src, tag int) *recvReq {
	if comm.Rank(c) < 0 {
		panic(fmt.Sprintf("mpi: Irecv by non-member g%d (use your own view of the communicator)", c.proc.gid))
	}
	r := c.proc.w.msg().recvs.get()
	r.op = r
	r.owner, r.comm, r.src, r.tag, r.phase = c.proc, comm, src, tag, c.phase
	// Match the oldest compatible envelope already in the mailbox.
	for i, env := range c.proc.inbox.all() {
		if env.matches(r) {
			c.proc.inbox.remove(i)
			env.rreq = r
			env.startFlow() // no-op if already streaming
			env.complete()  // no-op unless data already arrived
			return r
		}
	}
	c.proc.posted.push(r)
	return r
}

// Send is the blocking send: Isend followed by Wait. With the rendezvous
// protocol a large Send does not return until the receiver posts a matching
// receive — the deadlock hazard of §3.1.
func (c *Ctx) Send(comm *Comm, dst, tag int, payload Payload) {
	s := c.isend(comm, dst, tag, payload)
	c.Wait(s.handle())
	c.proc.w.freeSend(s)
}

// Recv is the blocking receive.
func (c *Ctx) Recv(comm *Comm, src, tag int) (Payload, Status) {
	r := c.irecv(comm, src, tag)
	c.Wait(r.handle())
	pl, st := r.payload, r.status
	c.proc.w.freeRecv(r)
	c.chargeCopy(pl.Size) // unpack
	return pl, st
}

// Sendrecv performs a blocking simultaneous exchange, as MPI_Sendrecv: the
// send and receive progress concurrently, so symmetric exchanges cannot
// deadlock.
func (c *Ctx) Sendrecv(comm *Comm, dst, sendTag int, payload Payload, src, recvTag int) (Payload, Status) {
	s := c.isend(comm, dst, sendTag, payload)
	r := c.irecv(comm, src, recvTag)
	c.waitPair(s, r)
	pl, st := r.payload, r.status
	c.proc.w.freeRecv(r)
	c.chargeCopy(pl.Size)
	return pl, st
}

// waitPair waits for the send and the receive of one exchange step, and
// recycles the send; the caller reads and recycles the receive.
func (c *Ctx) waitPair(s *sendReq, r *recvReq) {
	c.reqs = append(c.reqs[:0], s.handle(), r.handle())
	c.Waitall(c.reqs)
	clear(c.reqs)
	c.proc.w.freeSend(s)
}

// waitallFree waits for the sends of a rooted collective, built in the
// context's request list, and recycles them.
func (c *Ctx) waitallFree(sends []Request) {
	c.reqs = sends // keep a grown list for the next operation
	c.Waitall(sends)
	for i, s := range sends {
		c.proc.w.free(s.s)
		sends[i] = Request{}
	}
}

// waitCond is Wait's condition: the request, which describes itself in
// deadlock reports.
type waitCond struct{ r Request }

func (w *waitCond) Done() bool     { return w.r.Done() }
func (w *waitCond) String() string { return "Wait: " + w.r.describe() }

// Wait blocks until the request completes.
func (c *Ctx) Wait(r Request) {
	r.state("Wait")
	if r.Done() {
		return
	}
	c.wait.r = r
	c.waitUntilDesc(&c.wait, nil)
	c.wait.r = Request{}
}

// waitList is the state of Waitall's and Waitany's conditions, which a
// context keeps in one place (Ctx.list): it blocks in one wait at a time.
type waitList struct {
	rs        []Request
	next, idx int
}

// allDone is Waitall's condition. next is the length of the prefix of rs
// known complete: completion never reverts, so each test resumes there.
type allDone waitList

func (a *allDone) Done() bool {
	for a.next < len(a.rs) && a.rs[a.next].Done() {
		a.next++
	}
	return a.next == len(a.rs)
}

// String describes the pending requests for deadlock reports.
func (a *allDone) String() string {
	pending, first := 0, ""
	for _, r := range a.rs {
		if !r.Done() {
			if pending == 0 {
				first = r.describe()
			}
			pending++
		}
	}
	return fmt.Sprintf("Waitall: %d pending, next %s", pending, first)
}

// Waitall blocks until every request completes.
func (c *Ctx) Waitall(rs []Request) {
	c.list.rs, c.list.next = rs, 0
	c.waitUntilDesc((*allDone)(&c.list), nil)
	c.list.rs = nil
}

// anyDone is Waitany's condition: it holds once some request is complete
// and not yet consumed, and idx is the first such index. next is the
// length of the consumed prefix of rs, which Waitany's first scan finds:
// nothing is consumed while Waitany waits, so every test starts there.
type anyDone waitList

func (a *anyDone) Done() bool {
	for i := a.next; i < len(a.rs); i++ {
		if r := a.rs[i]; !r.consumed() && r.Done() {
			a.idx = i
			return true
		}
	}
	return false
}

// String describes the pending requests for deadlock reports.
func (a *anyDone) String() string {
	pending, first := 0, ""
	for _, r := range a.rs {
		if !r.consumed() && !r.Done() {
			if pending == 0 {
				first = r.describe()
			}
			pending++
		}
	}
	return fmt.Sprintf("Waitany: %d pending, next %s", pending, first)
}

// Waitany blocks until at least one not-yet-consumed request completes and
// returns its index, marking it consumed (MPI_Waitany). Null requests
// count as consumed. If every request is consumed it returns -1
// (MPI_UNDEFINED).
func (c *Ctx) Waitany(rs []Request) int {
	next := 0
	for next < len(rs) && rs[next].consumed() {
		next++
	}
	if next == len(rs) {
		return -1
	}
	c.list.rs, c.list.next = rs, next
	c.waitUntilDesc((*anyDone)(&c.list), nil)
	idx := c.list.idx
	c.list.rs = nil
	rs[idx].s.consumed = true
	return idx
}

// Test reports whether the request has completed, without blocking.
func (c *Ctx) Test(r Request) bool { return r.Done() }

// Testall reports whether every request has completed, without blocking
// (MPI_Testall). It is free: it charges no virtual time, so transfers may
// poll their active wave with it on every progress tick.
func (c *Ctx) Testall(rs []Request) bool {
	for _, r := range rs {
		if !r.Done() {
			return false
		}
	}
	return true
}
