package mpi

import (
	"fmt"

	"repro/internal/trace"
)

// payloadBytes sums the wire sizes of a payload vector, for collective
// trace events.
func payloadBytes(pls []Payload) int64 {
	var n int64
	for _, p := range pls {
		n += p.Size
	}
	return n
}

// collTagBase separates internal collective traffic from user tags. User
// tags must stay below this value.
const collTagBase = 1 << 20

// maxUserTag is the largest tag user code may pass to Isend/Irecv.
const maxUserTag = collTagBase - 1

// collTag reserves a tag block for the next collective on comm, encoding a
// per-process sequence number so that back-to-back collectives on the same
// communicator cannot cross-match. Collectives are ordered per
// communicator, so every member computes the same sequence.
func (c *Ctx) collTag(comm *Comm) int {
	if c.proc.collSeq == nil {
		c.proc.collSeq = make(map[int]int)
	}
	seq := c.proc.collSeq[comm.ctxID]
	c.proc.collSeq[comm.ctxID] = seq + 1
	return collTagBase + (seq%1024)*64
}

// Barrier synchronizes the local group of an intra-communicator with the
// dissemination algorithm: ⌈log2 p⌉ rounds of small messages.
func (c *Ctx) Barrier(comm *Comm) {
	if comm.IsInter() {
		panic("mpi: Barrier on inter-communicator")
	}
	p := comm.Size()
	if p == 1 {
		return
	}
	defer c.span(trace.EvBarrier, comm.ctxID, "Barrier", 0)()
	r := comm.Rank(c)
	tag := c.collTag(comm)
	for k, round := 1, 0; k < p; k, round = k<<1, round+1 {
		to := (r + k) % p
		from := (r - k + p) % p
		s := c.isend(comm, to, tag+round, Virtual(1))
		rr := c.irecv(comm, from, tag+round)
		c.waitPair(s, rr)
		c.proc.w.freeRecv(rr)
	}
}

// Bcast distributes root's payload to every rank of an intra-communicator
// over a binomial tree and returns the payload at every rank.
func (c *Ctx) Bcast(comm *Comm, root int, payload Payload) Payload {
	if comm.IsInter() {
		panic("mpi: Bcast on inter-communicator")
	}
	p := comm.Size()
	if p == 1 {
		return payload
	}
	defer c.span(trace.EvColl, comm.ctxID, "Bcast", payload.Size)()
	r := comm.Rank(c)
	vr := (r - root + p) % p // rank relative to root
	tag := c.collTag(comm)

	// Find the highest power of two not above p.
	pof2 := 1
	for pof2<<1 <= p {
		pof2 <<= 1
	}

	// Receive from parent (all ranks except root).
	if vr != 0 {
		mask := 1
		for vr&mask == 0 {
			mask <<= 1
		}
		parent := (vr - mask + root) % p
		got, _ := c.Recv(comm, parent, tag)
		payload = got
	}
	// Forward to children.
	reqs := c.reqs[:0]
	for mask := pof2; mask > 0; mask >>= 1 {
		if vr&(mask-1) == 0 && vr&mask == 0 {
			child := vr + mask
			if child < p {
				reqs = append(reqs, c.isend(comm, (child+root)%p, tag, payload).handle())
			}
		}
	}
	c.waitallFree(reqs)
	return payload
}

// Reduce combines every rank's payload with op down a binomial tree and
// returns the result at root (other ranks get a zero Payload).
func (c *Ctx) Reduce(comm *Comm, root int, payload Payload, op Op) Payload {
	if comm.IsInter() {
		panic("mpi: Reduce on inter-communicator")
	}
	p := comm.Size()
	acc := clonePayload(payload)
	if p == 1 {
		return acc
	}
	defer c.span(trace.EvColl, comm.ctxID, "Reduce", payload.Size)()
	r := comm.Rank(c)
	vr := (r - root + p) % p
	tag := c.collTag(comm)

	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			parent := ((vr &^ mask) + root) % p
			c.Send(comm, parent, tag, acc)
			return Payload{}
		}
		childVr := vr | mask
		if childVr < p {
			got, _ := c.Recv(comm, (childVr+root)%p, tag)
			combine(&acc, got, op)
		}
	}
	return acc
}

// Allreduce combines every rank's payload with op and returns the result at
// every rank. The implementation is reduce-to-zero plus broadcast
// (2⌈log2 p⌉ rounds), the latency shape of MPICH's short-vector algorithm.
func (c *Ctx) Allreduce(comm *Comm, payload Payload, op Op) Payload {
	red := c.Reduce(comm, 0, payload, op)
	return c.Bcast(comm, 0, red)
}

// Allgatherv gathers every rank's (variable-size) payload at every rank
// using the ring algorithm: p-1 neighbor exchange steps. The result is
// indexed by rank.
func (c *Ctx) Allgatherv(comm *Comm, payload Payload) []Payload {
	if comm.IsInter() {
		panic("mpi: Allgatherv on inter-communicator")
	}
	p := comm.Size()
	r := comm.Rank(c)
	out := make([]Payload, p)
	out[r] = payload
	if p == 1 {
		return out
	}
	defer c.span(trace.EvColl, comm.ctxID, "Allgatherv", payload.Size)()
	tag := c.collTag(comm)
	right := (r + 1) % p
	left := (r - 1 + p) % p
	for s := 1; s < p; s++ {
		sendIdx := (r - s + 1 + p) % p // block received in the previous step
		recvIdx := (r - s + p) % p
		got, _ := c.Sendrecv(comm, right, tag+0, out[sendIdx], left, tag+0)
		out[recvIdx] = got
	}
	return out
}

// Alltoallv sends send[i] to peer i and returns the payloads received from
// every peer, blocking until the exchange completes.
//
// Algorithm selection follows MPICH, which is the crux of §4.4.2:
//
//   - On an intra-communicator the exchange posts scattered non-blocking
//     sends and receives and waits for all of them.
//   - On an inter-communicator (the Baseline method's communicator) the
//     blocking exchange serializes pairwise steps; every lock-step
//     synchronization pays the node's oversubscription rescheduling penalty,
//     which is why Baseline COLS underperforms — and why its non-blocking
//     variant can beat it (α < 1 in Figures 4-5).
func (c *Ctx) Alltoallv(comm *Comm, send []Payload) []Payload {
	end := c.span(trace.EvColl, comm.ctxID, "Alltoallv", payloadBytes(send))
	var out []Payload
	if comm.IsInter() {
		out = c.alltoallvPairwise(comm, send)
	} else {
		req := c.Ialltoallv(comm, send)
		c.Wait(req)
		out = req.Result()
	}
	end()
	return out
}

// Alltoall is Alltoallv with one equal payload per peer. Kept for the
// paper's Algorithm 2, whose COL size exchange is a fixed-size Alltoall of
// per-peer counts (the COL method currently announces sparse sizes).
func (c *Ctx) Alltoall(comm *Comm, each Payload, peers int) []Payload {
	send := make([]Payload, peers)
	for i := range send {
		send[i] = each
	}
	return c.Alltoallv(comm, send)
}

// alltoallvPairwise is the serialized pairwise exchange used for blocking
// inter-communicator Alltoallv. Receives are pre-posted (so unequal group
// sizes cannot deadlock) but sends proceed one at a time, each step
// synchronizing with the peer and paying the rescheduling penalty on
// oversubscribed nodes.
func (c *Ctx) alltoallvPairwise(comm *Comm, send []Payload) []Payload {
	npeers := len(comm.peerGroup())
	if len(send) != npeers {
		panic(fmt.Sprintf("mpi: Alltoallv with %d payloads for %d peers", len(send), npeers))
	}
	r := comm.Rank(c)
	tag := c.collTag(comm)
	w := c.proc.w

	rc := w.msg()
	recvs := rc.recvLists.get(npeers)
	for i := 0; i < npeers; i++ {
		recvs[i] = c.irecv(comm, i, tag)
	}
	for s := 0; s < npeers; s++ {
		dst := (r + s) % npeers
		sr := c.isend(comm, dst, tag, send[dst])
		c.Wait(sr.handle())
		w.freeSend(sr)
		if pen := c.schedPenalty(); pen > 0 {
			c.Sleep(pen)
		}
	}
	out := make([]Payload, npeers)
	for i, rr := range recvs {
		c.Wait(rr.handle())
		out[i] = rr.payload
		w.freeRecv(rr)
		recvs[i] = nil
		c.chargeCopy(out[i].Size)
	}
	rc.recvLists.put(recvs)
	return out
}

// alltoallvReq is a non-blocking Alltoallv's request. It owns its
// per-peer requests and recycles each one as poll finds it complete,
// keeping a receive's payload in the result; once all are complete it
// hands back the emptied lists too. It is not pooled: the caller keeps
// its result.
type alltoallvReq struct {
	reqState
	w     *World
	comm  int // matching-context id, for deadlock reports
	sends []*sendReq
	recvs []*recvReq
	out   []Payload
	// sent and recvd count the prefixes of sends and recvs known complete,
	// and already recycled; completion never reverts, so poll resumes its
	// scan there.
	sent, recvd int
}

func (*alltoallvReq) kind() string { return "Ialltoallv" }

// poll reports whether every underlying transfer has completed.
func (r *alltoallvReq) poll() bool {
	for r.sent < len(r.sends) && r.sends[r.sent].done {
		r.w.freeSend(r.sends[r.sent])
		r.sends[r.sent] = nil
		r.sent++
	}
	if r.sent < len(r.sends) {
		return false
	}
	for r.recvd < len(r.recvs) && r.recvs[r.recvd].done {
		rr := r.recvs[r.recvd]
		r.out[r.recvd] = rr.payload
		r.w.freeRecv(rr)
		r.recvs[r.recvd] = nil
		r.recvd++
	}
	if r.recvd < len(r.recvs) {
		return false
	}
	rc := r.w.msg()
	rc.sendLists.put(r.sends)
	rc.recvLists.put(r.recvs)
	r.sends, r.recvs = nil, nil
	r.sent, r.recvd = 0, 0
	r.done = true
	return true
}

func (r *alltoallvReq) describe() string {
	pendS, pendR := 0, 0
	for _, s := range r.sends[r.sent:] {
		if !s.done {
			pendS++
		}
	}
	for _, rr := range r.recvs[r.recvd:] {
		if !rr.done {
			pendR++
		}
	}
	return fmt.Sprintf("Ialltoallv comm=%d (%d sends, %d recvs pending)", r.comm, pendS, pendR)
}

// Result returns the received payloads of a complete Ialltoallv, indexed
// by peer rank; the slice is the request's, returned on every call.
func (r Request) Result() []Payload {
	if s := r.state("Result"); s != nil && s.done {
		if a, ok := s.op.(*alltoallvReq); ok {
			return a.out
		}
	}
	panic("mpi: Result of a request that is not a complete Ialltoallv")
}

// Ialltoallv starts a non-blocking Alltoallv (scattered sends/receives on
// both intra- and inter-communicators, like MPICH's MPI_Ialltoallv) and
// returns a request to Test or Wait on.
func (c *Ctx) Ialltoallv(comm *Comm, send []Payload) Request {
	npeers := len(comm.peerGroup())
	if len(send) != npeers {
		panic(fmt.Sprintf("mpi: Ialltoallv with %d payloads for %d peers", len(send), npeers))
	}
	if rec := c.proc.w.sink; rec != nil {
		now := c.sp.Now()
		rec.Record(trace.Event{
			Kind: trace.EvColl, Rank: c.proc.gid, Start: now, End: now,
			Peer: -1, Tag: -1, Comm: comm.ctxID,
			Bytes: payloadBytes(send), Op: "Ialltoallv", Phase: c.phase,
		})
	}
	tag := c.collTag(comm)
	rc := c.proc.w.msg()
	req := &alltoallvReq{
		w:     c.proc.w,
		comm:  comm.ctxID,
		sends: rc.sendLists.get(npeers),
		recvs: rc.recvLists.get(npeers),
		out:   make([]Payload, npeers),
	}
	for i := range req.recvs {
		req.recvs[i] = c.irecv(comm, i, tag)
	}
	r := comm.Rank(c)
	for s := range req.sends {
		dst := (r + s) % npeers // stagger destinations to spread NIC load
		req.sends[s] = c.isend(comm, dst, tag, send[dst])
	}
	req.op = req
	return req.handle()
}
