package mpi

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// spawnSt is the rendezvous state for one collective Spawn on a comm.
type spawnSt struct {
	parentView *Comm
	done       *fastBarrier
	arrived    int
}

// Injected spawn failures are retried with capped exponential backoff: the
// first retry waits spawnBackoff simulated seconds, each further one twice
// the previous wait, at most spawnBackoffCap. Attempts are unlimited (the
// simulator's spawn failures are always finite).
const (
	spawnBackoff    = 0.02
	spawnBackoffCap = 0.5
)

// recordSpawnRetry emits the per-attempt retry event: an instant EvFault
// with Op "spawn-retry" and Tag carrying the failed-attempt ordinal.
func recordSpawnRetry(c *Ctx, comm int, attempt int) {
	rec := c.proc.w.sink
	if rec == nil {
		return
	}
	now := c.sp.Now()
	rec.Record(trace.Event{
		Kind: trace.EvFault, Rank: c.proc.gid, Start: now, End: now,
		Peer: -1, Tag: attempt, Comm: comm, Op: "spawn-retry", Phase: c.phase,
	})
}

// Spawn launches n new MPI processes running fn, as MPI_Comm_spawn: it is
// collective over comm (an intra-communicator), rank 0 pays the spawn cost
// on the critical path, and it returns each caller's view of the
// inter-communicator connecting the spawning group to the children. The
// children's Parent() returns their view of the same inter-communicator,
// and fn additionally receives the children's own world communicator
// (their MPI_COMM_WORLD).
//
// nodeOf maps each child rank to a node; if nil, the machine's block
// placement is used (which, as in the paper's Baseline method, lands the
// children on the nodes the sources already occupy — oversubscription).
//
// An injected spawn failure pays the spawn cost, records a "spawn-retry"
// event and backs off before the next attempt (see spawnBackoff).
func (c *Ctx) Spawn(comm *Comm, n int, nodeOf func(childRank int) int,
	fn func(child *Ctx, childWorld *Comm)) *Comm {
	if comm.IsInter() {
		panic("mpi: Spawn over inter-communicator")
	}
	if n <= 0 {
		panic(fmt.Sprintf("mpi: Spawn(%d)", n))
	}
	me := comm.Rank(c)
	if me < 0 {
		panic("mpi: Spawn by non-member")
	}
	w := c.proc.w
	if nodeOf == nil {
		nodeOf = w.machine.NodeOf
	}
	if w.spawns == nil {
		w.spawns = make(map[int]*spawnSt)
	}
	st, ok := w.spawns[comm.ctxID]
	if !ok {
		st = &spawnSt{
			done: &fastBarrier{size: comm.Size(), sig: newNamedSignal(comm, "spawn")},
		}
		w.spawns[comm.ctxID] = st
	}

	if me == 0 {
		// Injected spawn failures: each failed attempt pays the spawn cost
		// again, records the retry event and backs off.
		if h := w.hooks; h != nil {
			wait := spawnBackoff
			attempt := 0
			for fails := h.SpawnFailures(n); fails > 0; fails-- {
				attempt++
				end := c.span(trace.EvSpawn, comm.ctxID, "Comm_spawn_failed", 0)
				c.Sleep(w.machine.SpawnCost(n))
				end()
				recordSpawnRetry(c, comm.ctxID, attempt)
				c.Sleep(wait)
				wait = min(2*wait, spawnBackoffCap)
			}
		}
		// Runtime negotiation plus fork/exec/wire-up of n processes.
		end := c.span(trace.EvSpawn, comm.ctxID, "Comm_spawn", 0)
		c.Sleep(w.machine.SpawnCost(n))
		end()
		children := w.newProcesses(n, nodeOf)
		parentView, childView := w.newInterComm(comm.local, children)
		st.parentView = parentView
		childWorld := w.newComm(children, nil)
		for i, p := range children {
			p := p
			p.parent = childView
			w.k.Spawn(fmt.Sprintf("spawned.g%d.r%d", p.gid, i), func(sp *sim.Proc) {
				fn(newCtx(p, sp), childWorld)
			})
		}
	}
	st.arrived++
	if st.arrived == comm.Size() {
		delete(w.spawns, comm.ctxID) // allow a later Spawn on the same comm
	}
	st.done.arrive(c)
	return st.parentView
}
