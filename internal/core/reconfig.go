package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/trace"
)

// withPhase tags ctx with the given reconfiguration phase while fn runs and
// records one EvPhase span covering it (when tracing is on). The previous
// tag is restored, so phase regions nest.
func withPhase(c *mpi.Ctx, phase string, fn func()) {
	prev := c.Phase()
	c.SetPhase(phase)
	start := c.Now()
	fn()
	recordPhaseSpan(c, phase, start)
	c.SetPhase(prev)
}

// tagPhase tags ctx with the phase while fn runs, without recording a span.
// Spawned targets use it: their phases are dominated by waiting for the
// sources, so they attribute their traffic but leave the stage timers to
// the source-side spans.
func tagPhase(c *mpi.Ctx, phase string, fn func()) {
	prev := c.Phase()
	c.SetPhase(phase)
	fn()
	c.SetPhase(prev)
}

// recordPhaseSpan emits an EvPhase span [start, now) for this rank. Stage
// timers (T_spawn, T_redist_const, …) derive from these spans: the metrics
// layer takes the earliest start and latest end across ranks per phase.
func recordPhaseSpan(c *mpi.Ctx, phase string, start float64) {
	rec := c.World().Sink()
	if rec == nil {
		return
	}
	rec.Record(trace.Event{
		Kind: trace.EvPhase, Rank: c.Proc().GID(), Start: start, End: c.Now(),
		Peer: -1, Tag: -1, Comm: -1, Op: phase, Phase: phase,
	})
}

// TargetFunc is the continuation freshly spawned processes run once the
// redistribution has delivered their data: Baseline targets and Merge
// expansion children. newComm is the application communicator of the new
// group (the children's world for Baseline, the merged intra-communicator
// for Merge), and store holds the redistributed items.
type TargetFunc func(ctx *mpi.Ctx, newComm *mpi.Comm, store *Store)

// xfer abstracts one redistribution pass (P2P, COL, RMA or CR) over some
// items.
type xfer interface {
	// runBlockingAll drives the pass to completion with blocking semantics.
	runBlockingAll(c *mpi.Ctx)
	// progress advances without blocking and reports completion; ready is
	// its pure half (see drive).
	drive
	// drain completes the pass from wherever progress left off.
	drain(c *mpi.Ctx)
}

// newXfer builds a redistribution pass for the given items. cfg.Comm
// selects the algorithm family (pairwise inter-communicator collectives vs
// scattered non-blocking), matching what the sources use so both sides run
// the same exchange; cfg.MemCeiling bounds each P2P and RMA wave (zero is
// a single unbounded wave; waves.go). Both sides derive the same waves from
// the shared cfg, so no extra coordination is exchanged.
func newXfer(cfg Config, v *view, items []Item, tagIdx []int) xfer {
	switch cfg.Comm {
	case P2P:
		x := newP2PTransfer(v, items, tagIdx)
		x.ceiling = cfg.MemCeiling
		return x
	case RMA:
		x := newRMATransfer(v, items)
		x.ceiling = cfg.MemCeiling
		return x
	case CR:
		return newCRTransfer(v, items)
	default:
		return newCOLTransfer(v, items)
	}
}

// itemPhases splits the store for the configuration: asynchronous variants
// move constant items during execution and variable items at the halt
// (§3.2); synchronous variants move everything in one pass.
func itemPhases(cfg Config, st *Store) (async, final []Item, asyncIdx, finalIdx []int) {
	if !cfg.Asynchronous() {
		final = st.Items()
		finalIdx = indicesOf(st, final)
		return nil, final, nil, finalIdx
	}
	async = st.ConstantItems()
	final = st.VariableItems()
	return async, final, indicesOf(st, async), indicesOf(st, final)
}

// indicesOf maps items to their registration indices in st. Item indices
// feed the P2P tag pairing (itemTags), so an unregistered item must fail
// loudly: silently defaulting its index would cross tag pairs between
// items and corrupt the redistribution.
func indicesOf(st *Store, items []Item) []int {
	idx := make([]int, len(items))
	for i, it := range items {
		j, ok := st.IndexOf(it)
		if !ok {
			panic(fmt.Sprintf("core: item %q is not registered in the store", it.Name()))
		}
		idx[i] = j
	}
	return idx
}

// Reconfig drives one malleability reconfiguration (stages 2 and 3) on a
// surviving rank. Construct with StartReconfig; synchronous configurations
// then call Wait, asynchronous ones call Test each iteration (Algorithm 3/4)
// followed by Finish once Test reports completion.
type Reconfig struct {
	cfg    Config
	ns, nt int
	rank   int

	appComm *mpi.Comm
	store   *Store

	v     *view
	joint *mpi.Comm // Merge: joint intra-communicator (expansion: size NT)

	viewReady  bool
	threadDone bool
	state      *sim.Signal // broadcast on spawn-thread milestones

	constXfer  xfer
	constStart float64 // virtual time the non-blocking constant pass began
	asyncDone  bool

	res *Resilience // nil: no fault tolerance

	newComm  *mpi.Comm
	finished bool
}

// StartReconfig begins a reconfiguration of appComm (the NS sources) to nt
// targets under cfg. store holds this rank's registered items; makeStore
// builds a fresh, identically-registered store inside each spawned process;
// target is the continuation spawned processes run (ignored when nothing is
// spawned). Placement follows the paper: target rank t lands on node
// ⌊t/cores⌋, so Baseline children share the sources' nodes.
//
// Synchronous configurations should immediately call Wait. Asynchronous
// ones return with stage 2 running in the background (on an auxiliary
// thread, mirroring the paper's asynchronous spawn) and must call Test at
// every iteration until it reports true, then Finish.
func StartReconfig(c *mpi.Ctx, cfg Config, appComm *mpi.Comm, nt int,
	store *Store, makeStore func() *Store, target TargetFunc) *Reconfig {
	return StartReconfigRes(c, cfg, appComm, nt, store, makeStore, target, nil)
}

// StartReconfigRes is StartReconfig with fault tolerance: a non-nil res
// runs the variable-data redistribution under the detect → abort →
// re-plan → resume protocol (see recover.go). Resilience requires the
// synchronous strategy; asynchronous configurations are downgraded to Sync
// (recorded as an "overlap-fallback" fault event) because an overlapped
// epoch cannot abort cleanly mid-iteration.
func StartReconfigRes(c *mpi.Ctx, cfg Config, appComm *mpi.Comm, nt int,
	store *Store, makeStore func() *Store, target TargetFunc, res *Resilience) *Reconfig {

	ns := appComm.Size()
	if nt <= 0 {
		panic(fmt.Sprintf("core: reconfiguration to %d targets", nt))
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Comm == CR && cfg.Overlap != Sync {
		panic("core: checkpoint/restart (CR) supports only the synchronous strategy (§2)")
	}
	if res != nil {
		res.validate()
		if cfg.Overlap != Sync {
			cfg.Overlap = Sync
			recordFault(c, "overlap-fallback", -1)
		}
	}
	r := &Reconfig{
		cfg: cfg, ns: ns, nt: nt, rank: appComm.Rank(c),
		appComm: appComm, store: store,
		state: sim.NewSignal("core.reconfig"),
		res:   res,
	}
	if r.rank < 0 {
		panic("core: StartReconfig by non-member of the application communicator")
	}

	if cfg.Asynchronous() {
		// Stage 2 runs on an auxiliary thread so iterations continue; for
		// the Thread strategy the same thread then performs the blocking
		// redistribution of constant data (Algorithm 4).
		c.NewThread("reconfig", func(t *mpi.Ctx) {
			withPhase(t, trace.PhaseSpawn, func() {
				r.stage2(t, makeStore, target)
			})
			r.viewReady = true
			r.state.Broadcast()
			if cfg.Overlap == Thread {
				withPhase(t, trace.PhaseRedistConst, func() {
					items, _, idx, _ := itemPhases(cfg, store)
					x := newXfer(cfg, r.v, items, idx)
					x.runBlockingAll(t)
				})
				r.threadDone = true
				r.state.Broadcast()
			}
		})
	} else {
		withPhase(c, trace.PhaseSpawn, func() {
			r.stage2(c, makeStore, target)
		})
		r.viewReady = true
	}
	return r
}

// stage2 performs process management: spawn for Baseline, spawn+merge for
// Merge expansion, nothing for Merge shrinkage. It also prepares the view
// the redistribution runs over.
func (r *Reconfig) stage2(c *mpi.Ctx, makeStore func() *Store, target TargetFunc) {
	cfg := r.cfg
	machine := c.World().Machine()
	switch cfg.Spawn {
	case Baseline:
		childMain := func(child *mpi.Ctx, childWorld *mpi.Comm) {
			st := makeStore()
			pv := child.Proc().Parent()
			v := newInterView(child, pv, r.ns, r.nt, false)
			runTargetSide(child, cfg, v, st, r.res)
			// Targets synchronize among themselves before resuming: the new
			// group starts its first iteration together.
			childWorld.FastBarrier(child)
			target(child, childWorld, st)
		}
		inter := c.Spawn(r.appComm, r.nt,
			func(t int) int { return machine.NodeOf(t) }, childMain)
		r.v = newInterView(c, inter, r.ns, r.nt, true)

	case Merge:
		if r.nt > r.ns {
			childMain := func(child *mpi.Ctx, _ *mpi.Comm) {
				st := makeStore()
				joint := child.Proc().Parent().Merge(child, true)
				// Redistribution uses a duplicate so its traffic cannot
				// match the application's (§3.2).
				v := newIntraView(child, joint.Dup(child), r.ns, r.nt)
				runTargetSide(child, cfg, v, st, r.res)
				joint.FastBarrier(child) // §3: synchronize before resuming
				target(child, joint, st)
			}
			// Child i becomes target rank NS+i.
			inter := c.Spawn(r.appComm, r.nt-r.ns,
				func(i int) int { return machine.NodeOf(r.ns + i) }, childMain)
			r.joint = inter.Merge(c, false)
		} else {
			r.joint = r.appComm
		}
		r.v = newIntraView(c, r.joint.Dup(c), r.ns, r.nt)
	}
}

// runTargetSide is the spawned processes' participation: redistribution of
// the same phases the sources run, with the algorithm family matching the
// overlap strategy (non-blocking sources pair with scattered collectives,
// blocking sources with pairwise ones).
func runTargetSide(c *mpi.Ctx, cfg Config, v *view, st *Store, res *Resilience) {
	async, final, asyncIdx, finalIdx := itemPhases(cfg, st)
	if len(async) > 0 {
		tagPhase(c, trace.PhaseRedistConst, func() {
			x := newXfer(cfg, v, async, asyncIdx)
			if cfg.Overlap == NonBlocking {
				x.drain(c)
			} else {
				x.runBlockingAll(c)
			}
		})
	}
	if res != nil {
		// The resilient pass is collective (protect and commit barriers),
		// so targets participate even when there is nothing to move.
		runResilientPass(c, cfg, v, final, finalIdx, res, false)
		return
	}
	if len(final) > 0 {
		tagPhase(c, trace.PhaseRedistVar, func() {
			x := newXfer(cfg, v, final, finalIdx)
			if cfg.Overlap == NonBlocking {
				x.drain(c)
			} else {
				x.runBlockingAll(c)
			}
		})
	}
}

// Test is Algorithm 3's redistStart/Test_Redistribution check (or, for the
// Thread strategy, Algorithm 4's endThread check): it advances any pending
// non-blocking redistribution and reports whether stages 2 and 3 for
// constant data have completed. It never blocks.
func (r *Reconfig) Test(c *mpi.Ctx) bool {
	if !r.cfg.Asynchronous() {
		panic("core: Test on a synchronous reconfiguration; use Wait")
	}
	if !r.viewReady {
		return false
	}
	switch r.cfg.Overlap {
	case Thread:
		return r.threadDone
	case NonBlocking:
		if r.asyncDone {
			return true
		}
		if r.constXfer == nil {
			items, _, idx, _ := itemPhases(r.cfg, r.store)
			if len(items) == 0 {
				r.asyncDone = true
				return true
			}
			r.constStart = c.Now()
			r.constXfer = newXfer(r.cfg, r.v, items, idx)
		}
		// Tag the progress call so any traffic it posts is attributed to the
		// constant pass; the span for the whole pass is recorded once, when
		// it completes, to avoid one EvPhase sliver per Test call.
		prev := c.Phase()
		c.SetPhase(trace.PhaseRedistConst)
		r.asyncDone = r.constXfer.progress(c)
		c.SetPhase(prev)
		if r.asyncDone {
			recordPhaseSpan(c, trace.PhaseRedistConst, r.constStart)
		}
		return r.asyncDone
	}
	return false
}

// Wait drives a synchronous reconfiguration to completion: stage 2 already
// ran inline; this performs the full blocking redistribution and the
// handover.
func (r *Reconfig) Wait(c *mpi.Ctx) {
	if r.cfg.Asynchronous() {
		panic("core: Wait on an asynchronous reconfiguration; use Test/Finish")
	}
	haltStart := c.Now()
	prev := c.Phase()
	c.SetPhase(trace.PhaseHalt)
	_, final, _, finalIdx := itemPhases(r.cfg, r.store)
	if r.res != nil {
		runResilientPass(c, r.cfg, r.v, final, finalIdx, r.res, true)
	} else {
		withPhase(c, trace.PhaseRedistVar, func() {
			newXfer(r.cfg, r.v, final, finalIdx).runBlockingAll(c)
		})
	}
	r.handover(c)
	recordPhaseSpan(c, trace.PhaseHalt, haltStart)
	c.SetPhase(prev)
}

// Finish completes an asynchronous reconfiguration after Test has reported
// true: it drains any residual constant-data traffic, redistributes the
// variable data with the sources halted (§3.2), and performs the handover.
func (r *Reconfig) Finish(c *mpi.Ctx) {
	if !r.cfg.Asynchronous() {
		panic("core: Finish on a synchronous reconfiguration; use Wait")
	}
	haltStart := c.Now()
	prev := c.Phase()
	c.SetPhase(trace.PhaseHalt)
	// Block until the background stage 2 / thread is done (the normal path
	// has Test already true, so this is a no-op).
	for !r.viewReady {
		c.SimProc().Wait(r.state)
	}
	switch r.cfg.Overlap {
	case Thread:
		for !r.threadDone {
			c.SimProc().Wait(r.state)
		}
	case NonBlocking:
		if !r.asyncDone {
			if r.constXfer == nil {
				items, _, idx, _ := itemPhases(r.cfg, r.store)
				if len(items) > 0 {
					r.constStart = c.Now()
					r.constXfer = newXfer(r.cfg, r.v, items, idx)
				}
			}
			if r.constXfer != nil {
				// Residual constant-data traffic keeps its phase tag even
				// though it drains inside the halt.
				cPrev := c.Phase()
				c.SetPhase(trace.PhaseRedistConst)
				r.constXfer.drain(c)
				c.SetPhase(cPrev)
				recordPhaseSpan(c, trace.PhaseRedistConst, r.constStart)
			}
			r.asyncDone = true
		}
	}
	_, final, _, finalIdx := itemPhases(r.cfg, r.store)
	if len(final) > 0 {
		withPhase(c, trace.PhaseRedistVar, func() {
			x := newXfer(r.cfg, r.v, final, finalIdx)
			if r.cfg.Overlap == NonBlocking {
				x.drain(c)
			} else {
				x.runBlockingAll(c)
			}
		})
	}
	r.handover(c)
	recordPhaseSpan(c, trace.PhaseHalt, haltStart)
	c.SetPhase(prev)
}

// handover finishes stage 3: surviving ranks obtain the new application
// communicator; Baseline sources and shrunken Merge sources are done.
func (r *Reconfig) handover(c *mpi.Ctx) {
	switch r.cfg.Spawn {
	case Baseline:
		// All sources finalize; the targets' communicator is their world.
	case Merge:
		if r.nt > r.ns {
			r.joint.FastBarrier(c) // with the children, before resuming
			r.newComm = r.joint
		} else {
			r.newComm = r.appComm.Sub(c, r.nt)
		}
	}
	r.finished = true
}

// Continues reports whether this rank survives the reconfiguration: false
// for every Baseline source and for Merge ranks at or beyond NT.
func (r *Reconfig) Continues() bool {
	if r.cfg.Spawn == Baseline {
		return false
	}
	return r.rank < r.nt
}

// NewComm returns the post-reconfiguration application communicator for
// surviving ranks. Valid once Wait or Finish returned and Continues is
// true.
func (r *Reconfig) NewComm() *mpi.Comm {
	if !r.finished || !r.Continues() {
		panic("core: NewComm before completed handover or on a finalizing rank")
	}
	return r.newComm
}

// Store returns the rank's item registry, whose blocks reflect the new
// distribution once the reconfiguration completed.
func (r *Reconfig) Store() *Store { return r.store }
