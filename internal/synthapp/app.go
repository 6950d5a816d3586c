package synthapp

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// RunParams selects one emulation run: the application configuration, the
// malleability variant, and the source/target process counts.
type RunParams struct {
	Cfg          *Config
	Malleability core.Config
	NS, NT       int

	// Monitor, when non-nil, collects per-rank spans and counters (the
	// Monitoring module's intermediate output files).
	Monitor *trace.Monitor

	// Recorder, when non-nil, captures every message-level event of the run
	// (sends, receives, collectives, compute, spawn, phases) for Chrome
	// trace export and derived metrics. Recording reads only the virtual
	// clock, so results are identical with or without it.
	Recorder *trace.Recorder

	// Sink, when non-nil, receives the same event stream as Recorder — the
	// bounded-memory path (internal/obs streaming telemetry). Recorder and
	// Sink compose: with both set the run tees every event to each, so a
	// full log and a constant-memory aggregate can be captured side by
	// side. Like Recorder, a sink reads only the virtual clock and cannot
	// change simulation results.
	Sink trace.Sink

	// Resilience, when non-nil, runs every reconfiguration under the fault
	// recovery protocol (detect → abort → re-plan → resume). It forces the
	// synchronous strategy: overlapped variants are downgraded by the core
	// layer, which records the fallback as a fault event.
	Resilience *core.Resilience
}

// StageMeasure records one reconfiguration of a multi-stage run.
type StageMeasure struct {
	// NT is the stage's target process count.
	NT int
	// Start is the checkpoint time that triggered the stage.
	Start float64
	// End is the instant the last target held all redistributed data.
	End float64
	// Overlapped counts source iterations executed during the stage.
	Overlapped int
	// IterTimeDuring is the mean iteration time while overlapped.
	IterTimeDuring float64
}

// Result collects the measurements of one run (the Monitoring module).
type Result struct {
	// TotalTime is the virtual time at which the last process of the final
	// group completed the run.
	TotalTime float64
	// ReconfigStart is the checkpoint time that triggered stage 2 of the
	// first reconfiguration.
	ReconfigStart float64
	// ReconfigEnd is the instant the last target of the first
	// reconfiguration held all redistributed data (the paper's
	// reconfiguration endpoint).
	ReconfigEnd float64
	// OverlappedIterations counts source iterations executed between
	// ReconfigStart and the completion agreement (asynchronous variants),
	// for the first reconfiguration.
	OverlappedIterations int
	// IterTimeBefore and IterTimeAfter are the measured steady-state
	// iteration times of the initial and final groups.
	IterTimeBefore float64
	IterTimeAfter  float64
	// IterTimeDuring is the mean iteration time while overlapped with the
	// first reconfiguration (zero for synchronous variants).
	IterTimeDuring float64

	// Stages reports every reconfiguration of a multi-stage hierarchy in
	// order (a single-reconfiguration run has exactly one entry, mirrored
	// by the legacy fields above).
	Stages []StageMeasure
}

// ReconfigTime returns the paper's reconfiguration time: spawn trigger to
// last data delivery.
func (r Result) ReconfigTime() float64 { return r.ReconfigEnd - r.ReconfigStart }

// runState is the shared bookkeeping of one emulation (single-threaded
// under the simulation kernel, so plain fields suffice). Parameters that
// the original tool ships to spawned processes via its Initialization
// module travel here out-of-band; they are bytes-free metadata with no
// timing impact.
type runState struct {
	cfg *Config
	mal core.Config
	ns  int
	nt  int

	rowPtrs map[string][]int64
	stages  []ReconfigStage
	mon     *trace.Monitor
	resil   *core.Resilience

	agreeCount int
	haltIter   int
	iterTime   float64 // batch sample, written by rank 0 of the phase

	res Result
}

// stageRes returns the measurement slot of stage i.
func (rs *runState) stageRes(i int) *StageMeasure { return &rs.res.Stages[i] }

// log returns the calling rank's monitor log, or nil when monitoring is
// off. Logs key on the process's world-unique id so respawned ranks stay
// distinct.
func (rs *runState) log(c *mpi.Ctx) *trace.RankLog {
	if rs.mon == nil {
		return nil
	}
	return rs.mon.Rank(c.Proc().GID())
}

// Run executes one synthetic-application emulation on the world and
// returns its measurements. It launches the NS sources, performs the
// configured reconfiguration to NT processes, and runs the kernel to
// completion.
func Run(w *mpi.World, p RunParams) (Result, error) {
	if err := p.Cfg.Validate(); err != nil {
		return Result{}, err
	}
	if p.NS <= 0 {
		return Result{}, fmt.Errorf("synthapp: NS=%d", p.NS)
	}
	// NT is required only for the implicit single reconfiguration; explicit
	// hierarchies carry their own target counts.
	if len(p.Cfg.Reconfigs) == 0 && p.Cfg.ReconfigIteration >= 0 && p.NT <= 0 {
		return Result{}, fmt.Errorf("synthapp: NT=%d with an implicit reconfiguration", p.NT)
	}
	if p.Recorder != nil {
		w.SetSink(trace.Tee(p.Recorder, p.Sink))
	} else {
		w.SetSink(p.Sink)
	}
	rs := &runState{cfg: p.Cfg, mal: p.Malleability, ns: p.NS, nt: p.NT,
		rowPtrs: map[string][]int64{}, mon: p.Monitor, resil: p.Resilience}
	for _, d := range p.Cfg.Data {
		if d.Kind == SparseData {
			rs.rowPtrs[d.Name] = rowPtrFor(d)
		}
	}
	// Resolve the process hierarchy: explicit stages, or the single
	// implicit reconfiguration to RunParams.NT.
	switch {
	case len(p.Cfg.Reconfigs) > 0:
		rs.stages = p.Cfg.Reconfigs
	case p.Cfg.ReconfigIteration >= 0:
		rs.stages = []ReconfigStage{{AtIteration: p.Cfg.ReconfigIteration, Procs: p.NT}}
	}
	rs.res.Stages = make([]StageMeasure, len(rs.stages))
	for i, st := range rs.stages {
		rs.res.Stages[i].NT = st.Procs
	}
	w.Launch(p.NS, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		store := rs.cfg.buildStore(p.NS, comm.Rank(c), rs.rowPtrs)
		rs.mainLoop(c, comm, store, 0, 0)
	})
	if err := w.Kernel().Run(); err != nil {
		return Result{}, err
	}
	if len(rs.res.Stages) > 0 {
		first := rs.res.Stages[0]
		rs.res.ReconfigStart = first.Start
		rs.res.ReconfigEnd = first.End
		rs.res.OverlappedIterations = first.Overlapped
		rs.res.IterTimeDuring = first.IterTimeDuring
	}
	return rs.res, nil
}

// mainLoop is the Application-emulation loop, including the Malleability
// module's checkpoint at the top of each iteration (Algorithms 3/4). It
// runs the phases of the process hierarchy from the given stage onward;
// spawned processes enter it at their creation stage.
func (rs *runState) mainLoop(c *mpi.Ctx, comm *mpi.Comm, store *core.Store, iter, stage int) {
	cfg := rs.cfg
	for stage < len(rs.stages) {
		sp := rs.stages[stage]
		perIter := rs.runPhase(c, comm, &iter, sp.AtIteration)
		if stage == 0 && perIter > 0 {
			rs.res.IterTimeBefore = perIter
		}

		// Malleability checkpoint: the RMS mandates a reconfiguration.
		nt := sp.Procs
		if comm.Rank(c) == 0 {
			rs.stageRes(stage).Start = c.Now()
		}
		nextStage := stage + 1
		reconStart := c.Now()
		recon := core.StartReconfigRes(c, rs.mal, comm, nt, store,
			func() *core.Store { return rs.cfg.buildStore(nt, -1, rs.rowPtrs) },
			func(ctx *mpi.Ctx, newComm *mpi.Comm, st *core.Store) {
				rs.markStageEnd(ctx, nextStage-1)
				rs.mainLoop(ctx, newComm, st, rs.haltIter, nextStage)
			}, rs.resil)

		// Resilience forces the synchronous strategy inside core, so the
		// overlap loop below would Test a synchronous reconfiguration.
		if !rs.mal.Asynchronous() || rs.resil != nil {
			rs.haltIter = iter
			recon.Wait(c)
		} else {
			// Asynchronous overlap: keep iterating, checking the
			// redistribution at every checkpoint until all sources agree.
			overlapStart := c.Now()
			overlapped := 0
			for {
				flag := recon.Test(c)
				c.Sleep(cfg.CheckpointCost) // contact the RMS / agreement
				if rs.agree(c, comm, flag) {
					break
				}
				if iter >= cfg.TotalIterations {
					// Budget exhausted mid-reconfiguration: stop iterating
					// but keep agreeing until the transfer drains.
					c.Sleep(10 * cfg.CheckpointCost)
					continue
				}
				rs.runIteration(c, comm)
				iter++
				overlapped++
			}
			rs.haltIter = iter
			if comm.Rank(c) == 0 {
				rs.stageRes(stage).Overlapped = overlapped
				if overlapped > 0 {
					rs.stageRes(stage).IterTimeDuring = (c.Now() - overlapStart) / float64(overlapped)
				}
			}
			recon.Finish(c)
		}
		if !recon.Continues() {
			if rl := rs.log(c); rl != nil {
				rl.Record("malleability", fmt.Sprintf("reconfig-%d", stage), reconStart, c.Now())
				rl.Record("completion", "finalize", c.Now(), c.Now())
			}
			return // Baseline source or shrunken Merge rank: Completion.
		}
		rs.markStageEnd(c, stage)
		if rl := rs.log(c); rl != nil {
			rl.Record("malleability", fmt.Sprintf("reconfig-%d", stage), reconStart, c.Now())
		}
		comm = recon.NewComm()
		store = recon.Store()
		iter = rs.haltIter
		stage = nextStage
	}

	perIter := rs.runPhase(c, comm, &iter, cfg.TotalIterations)
	rs.res.IterTimeAfter = perIter
	if len(rs.stages) == 0 {
		rs.res.IterTimeBefore = perIter // no malleability: a single phase
	}
	rs.complete(c, comm, iter)
}

// markStageEnd advances the "last target holds its data" timestamp of one
// reconfiguration stage.
func (rs *runState) markStageEnd(c *mpi.Ctx, stage int) {
	if sm := rs.stageRes(stage); c.Now() > sm.End {
		sm.End = c.Now()
	}
}

// complete is the Completion module: synchronize the group and record the
// finish time.
func (rs *runState) complete(c *mpi.Ctx, comm *mpi.Comm, iter int) {
	comm.FastBarrier(c)
	if c.Now() > rs.res.TotalTime {
		rs.res.TotalTime = c.Now()
	}
}

// runPhase executes iterations [*iter, until) in steady state, batching
// once a measured sample is available. It returns the measured per-
// iteration time (zero if the phase was empty).
func (rs *runState) runPhase(c *mpi.Ctx, comm *mpi.Comm, iter *int, until int) float64 {
	if *iter >= until {
		return 0
	}
	if rl := rs.log(c); rl != nil {
		end := rl.Open("application", fmt.Sprintf("phase-%d-%d", *iter, until), c.Now())
		defer func() { end(c.Now()) }()
	}
	sample := rs.cfg.SampleIterations
	if sample <= 0 || until-*iter <= sample {
		for *iter < until {
			rs.runIteration(c, comm)
			*iter++
		}
		return 0
	}
	// Measure a sample, then fast-forward the remainder at the measured
	// rate (the group stays synchronized: the sleep starts from a barrier).
	comm.FastBarrier(c)
	start := c.Now()
	for k := 0; k < sample; k++ {
		rs.runIteration(c, comm)
		*iter++
	}
	comm.FastBarrier(c)
	if comm.Rank(c) == 0 {
		rs.iterTime = (c.Now() - start) / float64(sample)
	}
	comm.FastBarrier(c)
	perIter := rs.iterTime
	remaining := until - *iter
	ffStart := c.Now()
	c.Sleep(float64(remaining) * perIter)
	if rec := c.World().Sink(); rec != nil && c.Now() > ffStart {
		// Record the fast-forward as one lumped iteration span, so trace
		// analysis attributes the batched steady-state to application work
		// rather than to blocked-wait.
		rec.Record(trace.Event{
			Kind: trace.EvCompute, Rank: c.Proc().GID(), Start: ffStart, End: c.Now(),
			Peer: -1, Tag: -1, Comm: -1, Op: "iterations", Phase: c.Phase(),
		})
	}
	*iter = until
	return perIter
}

// runIteration executes the configured stages once.
func (rs *runState) runIteration(c *mpi.Ctx, comm *mpi.Comm) {
	p := comm.Size()
	lat := c.World().Machine().Config().Net.Latency
	noise := c.World().Machine().Noise()
	if rl := rs.log(c); rl != nil {
		rl.Add("iterations", 1)
	}
	for _, s := range rs.cfg.Stages {
		switch s.Type {
		case StageCompute:
			c.Compute(s.Work / float64(p) * noise)
		case StageAllreduce:
			comm.FastBarrier(c)
			c.Sleep(2 * ceilLog2(p) * lat)
		case StageAllgatherv:
			if p > 1 {
				rs.ringExchange(c, comm, s.Bytes*int64(p-1)/int64(p))
			}
			if p > 2 {
				c.Sleep(float64(p-2) * lat)
			}
		case StageSendrecv:
			rs.ringExchange(c, comm, s.Bytes)
		case StageBcast:
			// Binomial tree: each rank relays the payload once (the level
			// crossing), plus the fan-out latency chain.
			comm.FastBarrier(c)
			if p > 1 {
				rs.ringExchange(c, comm, s.Bytes)
				c.Sleep(ceilLog2(p) * lat)
			}
		case StageBarrier:
			comm.FastBarrier(c)
			c.Sleep(ceilLog2(p) * lat)
		}
	}
}

// ringExchange moves bytes to the right neighbor and receives from the
// left: the per-NIC traffic of a ring collective, carried as real flows so
// it contends with concurrent redistribution traffic.
func (rs *runState) ringExchange(c *mpi.Ctx, comm *mpi.Comm, bytes int64) {
	p := comm.Size()
	if p == 1 || bytes <= 0 {
		return
	}
	r := comm.Rank(c)
	right := (r + 1) % p
	left := (r - 1 + p) % p
	s := c.Isend(comm, right, 3, mpi.Virtual(bytes))
	rr := c.Irecv(comm, left, 3)
	c.Waitall([]mpi.Request{s, rr})
	c.Free(s)
	c.Free(rr)
}

// agree implements the sources' completion consensus at a checkpoint: all
// flags must be true in the same round.
func (rs *runState) agree(c *mpi.Ctx, comm *mpi.Comm, flag bool) bool {
	comm.FastBarrier(c)
	if flag {
		rs.agreeCount++
	}
	comm.FastBarrier(c)
	all := rs.agreeCount == comm.Size()
	comm.FastBarrier(c)
	if comm.Rank(c) == 0 {
		rs.agreeCount = 0
	}
	return all
}

// ceilLog2 returns ⌈log2 p⌉, the stage count of a binomial-tree
// collective over p ranks, and 0 for p ≤ 1.
func ceilLog2(p int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(bits.Len(uint(p - 1)))
}
