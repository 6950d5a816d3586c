package mpi

import (
	"fmt"

	"repro/internal/trace"
)

// Comm is a communicator handle: an ordered local process group plus a
// private matching context. An inter-communicator additionally has a remote
// group; each side holds its own view (its own group as local), and the two
// views share the matching context, as in MPI. Point-to-point destinations
// and collective peers index the remote group on an inter-communicator.
type Comm struct {
	w     *World
	ctxID int

	local  []*Process
	remote []*Process // nil for intra-communicators

	// localRank[gid] is process gid's rank in the local group, -1 for a
	// process outside it; a gid past its end is not a member either. Send
	// paths resolve a rank on every message, so this is an index, not a
	// map lookup.
	localRank []int32
}

func (w *World) newComm(local, remote []*Process) *Comm {
	c := &Comm{
		w:      w,
		ctxID:  w.nextCtxID,
		local:  local,
		remote: remote,
	}
	w.nextCtxID++
	n := 0
	for _, p := range local {
		n = max(n, p.gid+1)
	}
	c.localRank = make([]int32, n)
	for i := range c.localRank {
		c.localRank[i] = -1
	}
	for r, p := range local {
		c.localRank[p.gid] = int32(r)
	}
	return c
}

// rankOf returns process gid's rank in the local group, or -1 if it is
// not a member.
func (c *Comm) rankOf(gid int) int {
	if gid < len(c.localRank) {
		return int(c.localRank[gid])
	}
	return -1
}

// newInterComm builds the two views of an inter-communicator joining groups
// a and b. The returned views share one matching context.
func (w *World) newInterComm(a, b []*Process) (viewA, viewB *Comm) {
	viewA = w.newComm(a, b)
	viewB = w.newComm(b, a)
	viewB.ctxID = viewA.ctxID // same matching context
	return viewA, viewB
}

// CtxID returns the communicator's matching-context identifier, shared by
// the two views of an inter-communicator.
func (c *Comm) CtxID() int { return c.ctxID }

// Size returns the local group size.
func (c *Comm) Size() int { return len(c.local) }

// RemoteSize returns the remote group size (0 for intra-communicators).
func (c *Comm) RemoteSize() int { return len(c.remote) }

// IsInter reports whether c is an inter-communicator.
func (c *Comm) IsInter() bool { return c.remote != nil }

// Rank returns the calling context's rank in the local group, or -1 if the
// process is not a member.
func (c *Comm) Rank(ctx *Ctx) int { return c.rankOf(ctx.proc.gid) }

// Member returns the local-group member at rank r.
func (c *Comm) Member(r int) *Process { return c.localProc(r) }

// RemoteMember returns the process point-to-point destination r addresses:
// the remote-group member at rank r on an inter-communicator, the local
// member otherwise.
func (c *Comm) RemoteMember(r int) *Process { return c.peerProc(r) }

func (c *Comm) localProc(r int) *Process {
	if r < 0 || r >= len(c.local) {
		panic(fmt.Sprintf("mpi: local rank %d out of range [0,%d)", r, len(c.local)))
	}
	return c.local[r]
}

// peerGroup returns the group point-to-point destinations index: the remote
// group on an inter-communicator, the local group otherwise.
func (c *Comm) peerGroup() []*Process {
	if c.remote != nil {
		return c.remote
	}
	return c.local
}

func (c *Comm) peerProc(r int) *Process {
	g := c.peerGroup()
	if r < 0 || r >= len(g) {
		panic(fmt.Sprintf("mpi: peer rank %d out of range [0,%d)", r, len(g)))
	}
	return g[r]
}

// senderRank returns the rank a receiver observes for a message sent by
// proc: the sender's rank in its own local group (which, across an
// inter-communicator, is its rank in the receiver's remote group).
func (c *Comm) senderRank(proc *Process) int {
	if r := c.rankOf(proc.gid); r >= 0 {
		return r
	}
	panic(fmt.Sprintf("mpi: process g%d is not a member of comm %d", proc.gid, c.ctxID))
}

// derivedKey identifies the n-th collective derivation of a given kind on a
// matching context, so that every rank's call to the same Dup/Sub returns
// the same communicator object.
type derivedKey struct {
	ctxID int
	kind  string
	gen   int
}

// derivedGen returns and advances the caller's per-process generation
// counter for derivations of the given kind on c. Derivations are
// collective and therefore ordered per communicator, so all members compute
// the same generation for the same call. A process derives from a handful
// of (context, kind) pairs, so the counters are a short list whose gen
// field holds the next generation, not a map per process.
func (c *Comm) derivedGen(ctx *Ctx, kind string) int {
	seq := ctx.proc.derivedSeq
	for i := range seq {
		if seq[i].ctxID == c.ctxID && seq[i].kind == kind {
			seq[i].gen++
			return seq[i].gen - 1
		}
	}
	if seq == nil {
		seq = make([]derivedKey, 0, 4) // a Merge RMA shrink keeps three counters
	}
	ctx.proc.derivedSeq = append(seq, derivedKey{ctxID: c.ctxID, kind: kind, gen: 1})
	return 0
}

func (c *Comm) derived(ctx *Ctx, kind string, build func() *Comm) *Comm {
	w := c.w
	if w.derived == nil {
		w.derived = make(map[derivedKey]*Comm)
	}
	key := derivedKey{ctxID: c.ctxID, kind: kind, gen: c.derivedGen(ctx, kind)}
	d, ok := w.derived[key]
	if !ok {
		d = build()
		w.derived[key] = d
	}
	return d
}

// Dup returns an intra-communicator with the same group but a fresh
// matching context, so traffic on the duplicate can never match receives on
// the original. The paper requires this separation between application and
// redistribution traffic to avoid deadlock (§3.2). Dup is collective: every
// member must call it, and all calls of the same generation return the same
// communicator. In the simulation it is cost-free.
func (c *Comm) Dup(ctx *Ctx) *Comm {
	if c.remote != nil {
		panic("mpi: Dup on inter-communicator not supported")
	}
	return c.derived(ctx, "dup", func() *Comm {
		return c.w.newComm(c.local, nil)
	})
}

// Sub returns an intra-communicator of the first n local-group members,
// ranks [0, n), in order (MPI_Group_range_incl, then
// MPI_Comm_create_group). It is collective over the parent group; every
// member must call it with the same n. The group is built once, by the
// first caller, so the call costs every other rank O(1).
func (c *Comm) Sub(ctx *Ctx, n int) *Comm {
	if c.remote != nil {
		panic("mpi: Sub on inter-communicator not supported")
	}
	if n < 0 || n > len(c.local) {
		panic(fmt.Sprintf("mpi: Sub of %d ranks out of range [0,%d]", n, len(c.local)))
	}
	return c.derived(ctx, "sub", func() *Comm {
		return c.w.newComm(c.local[:n:n], nil)
	})
}

// groupSpan reports the number of participants in collective operations on
// c: both groups of an inter-communicator, the single group otherwise.
func (c *Comm) groupSpan() int { return len(c.local) + len(c.remote) }

// barrierFor returns the shared fast barrier of c's matching context.
func (w *World) barrierFor(c *Comm) *fastBarrier {
	if w.barriers == nil {
		w.barriers = make(map[int]*fastBarrier)
	}
	b, ok := w.barriers[c.ctxID]
	if !ok {
		b = &fastBarrier{size: c.groupSpan(), sig: newNamedSignal(c, "fastbarrier")}
		w.barriers[c.ctxID] = b
	}
	return b
}

// FastBarrier synchronizes every member of the communicator (both groups on
// an inter-communicator) at zero simulated cost. Exactly one context per
// process must participate per generation. It is the emulation shortcut for
// stages where the synthetic application only needs ranks aligned; use
// Barrier for a cost-bearing synchronization.
func (c *Comm) FastBarrier(ctx *Ctx) {
	defer ctx.span(trace.EvBarrier, c.ctxID, "FastBarrier", 0)()
	c.w.barrierFor(c).arrive(ctx)
}

// mergeSt carries the rendezvous state for one Merge call.
type mergeSt struct {
	result *Comm
	done   *fastBarrier
}

// Merge collapses an inter-communicator into an intra-communicator
// (MPI_Intercomm_merge). Every process of both groups must call it on its
// own view; the side calling with high=false gets the low ranks. Merge may
// be invoked once per inter-communicator.
func (c *Comm) Merge(ctx *Ctx, high bool) *Comm {
	if c.remote == nil {
		panic("mpi: Merge on intra-communicator")
	}
	w := c.w
	if w.merges == nil {
		w.merges = make(map[int]*mergeSt)
	}
	st, ok := w.merges[c.ctxID]
	if !ok {
		st = &mergeSt{
			done: &fastBarrier{size: c.groupSpan(), sig: newNamedSignal(c, "merge")},
		}
		w.merges[c.ctxID] = st
	}
	if st.result == nil {
		// The first caller fixes the ordering: its own group is low when it
		// passes high=false. MPI requires the two sides to pass
		// complementary values, so one caller's view suffices.
		callerG, otherG := c.local, c.remote
		low, hi := callerG, otherG
		if high {
			low, hi = otherG, callerG
		}
		merged := make([]*Process, 0, len(low)+len(hi))
		merged = append(merged, low...)
		merged = append(merged, hi...)
		st.result = w.newComm(merged, nil)
	}
	// Synchronize all participants before anyone uses the merged comm.
	st.done.arrive(ctx)
	return st.result
}
