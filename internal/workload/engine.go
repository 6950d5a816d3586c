package workload

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/trace"
)

// Params configures one cluster-workload simulation.
type Params struct {
	// Cluster is the node inventory (Nodes × CoresPerNode); only the
	// capacity shape is used — the workload engine is a fluid model above
	// the packet-level machine.
	Cluster cluster.Config
	// Cost prices one reconfiguration (nil: free reconfigurations).
	Cost rms.CostModel
	// Policy decides malleable allocations (required).
	Policy Policy
	// DisableBackfill turns off EASY backfill, leaving plain FCFS.
	DisableBackfill bool
	// SlowdownTau is the bounded-slowdown threshold in seconds: slowdown =
	// (wait + run) / max(tau, run), so confetti jobs cannot dominate the
	// metric (<= 0 selects 10).
	SlowdownTau float64
	// Telemetry, when non-nil, receives streaming observations: job waits,
	// bounded slowdowns, queue depths, reconfiguration and job-lifetime
	// spans. The stream reads only virtual time, so attaching it never
	// changes a result.
	Telemetry *obs.Stream
}

// JobResult is one job's lifetime under the scheduler.
type JobResult struct {
	ID        int
	Malleable bool
	Arrival   float64
	Start     float64
	End       float64
	// Wait is Start − Arrival; Slowdown the bounded slowdown
	// (wait + run) / max(tau, run), always >= 1.
	Wait     float64
	Slowdown float64
	// Reconfigs counts allocation changes after launch; ReconfigSeconds
	// the total time frozen redistributing.
	Reconfigs       int
	ReconfigSeconds float64
}

// Result summarizes one simulated campaign cell.
type Result struct {
	Jobs []JobResult

	Makespan        float64
	UsedCoreSeconds float64
	// Utilization is UsedCoreSeconds over the cores×makespan envelope.
	Utilization float64
	// Throughput is completed jobs per simulated second.
	Throughput float64

	MeanWait     float64
	MeanSlowdown float64
	P95Slowdown  float64
	MaxSlowdown  float64

	Reconfigs       int
	ReconfigSeconds float64

	// PeakCores is the largest total allocation observed — never above
	// the cluster's TotalCores (the scheduler invariant).
	PeakCores     int
	MaxQueueDepth int
}

// jobRun is one job's mutable scheduling state.
type jobRun struct {
	rms.Job
	remaining    float64
	alloc        int
	started      bool
	done         bool
	start, end   float64
	pausedUntil  float64
	lastAllocSet bool
	reconfigs    int
	reconfigSec  float64
}

// wakeQueue is a min-heap of the distinct pending wake-up instants
// (arrivals, estimated completions, reconfiguration pause expiries), each
// carrying how many wake-ups were armed for it. Passes re-arm the same
// completion estimate until something changes, so most wake-ups are
// duplicates; merging them lets the event loop pay once per instant.
type wakeQueue struct {
	ts    []float64
	count map[float64]int
}

// add arms k wake-ups at t, merging with an instant already queued.
func (q *wakeQueue) add(t float64, k int) {
	if n, ok := q.count[t]; ok {
		q.count[t] = n + k
		return
	}
	q.count[t] = k
	q.ts = append(q.ts, t)
	for i := len(q.ts) - 1; i > 0; {
		up := (i - 1) / 2
		if q.ts[up] <= q.ts[i] {
			break
		}
		q.ts[up], q.ts[i] = q.ts[i], q.ts[up]
		i = up
	}
}

// pop removes the earliest instant and returns it with its multiplicity.
func (q *wakeQueue) pop() (float64, int) {
	t := q.ts[0]
	k := q.count[t]
	delete(q.count, t)
	n := len(q.ts) - 1
	q.ts[0] = q.ts[n]
	q.ts = q.ts[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && q.ts[l] < q.ts[m] {
			m = l
		}
		if r := 2*i + 2; r < n && q.ts[r] < q.ts[m] {
			m = r
		}
		if m == i {
			break
		}
		q.ts[m], q.ts[i] = q.ts[i], q.ts[m]
		i = m
	}
	return t, k
}

const (
	workEps = 1e-9
	timeEps = 1e-9
)

// engine is one simulation's state.
type engine struct {
	p       Params
	total   int
	tau     float64
	cost    rms.CostModel
	jobs    []*jobRun // FCFS order: (Arrival, submission index)
	nextArr int
	waiting []*jobRun // arrived, not started, FIFO
	active  []*jobRun // started, not done

	used      float64
	peakCores int
	maxQueue  int

	// Per-pass scratch, reused across passes: the policy's job view and
	// the blocked head's release schedule.
	pjs  []PolicyJob
	prun []*jobRun
	rels []release

	// pops counts the instants taken off the wake queue; folded duplicate
	// wake-ups do not count.
	pops int
}

// release is one running job's estimated completion and the cores it
// then gives back.
type release struct {
	t     float64
	cores int
}

// pass is what one scheduling pass reports back to the event loop.
type pass struct {
	// changed is set when the pass admitted an arrival, started a job,
	// dropped a finished one, or changed any job's allocation state
	// (alloc, lastAllocSet, pausedUntil, reconfigs).
	changed bool
	// queued is the queue depth the pass observed.
	queued int
	// nextDone is the completion wake-up the pass armed (+Inf: none).
	nextDone float64
}

// Run simulates the job trace to completion under the given parameters.
// Everything is virtual time and seeded state: the same trace and params
// produce the same Result at any host parallelism.
func Run(jobs []rms.Job, p Params) (Result, error) {
	e, err := newEngine(jobs, p)
	if err != nil {
		return Result{}, err
	}
	return e.run()
}

// newEngine validates and normalizes the trace into FCFS order.
func newEngine(jobs []rms.Job, p Params) (*engine, error) {
	if p.Policy == nil {
		return nil, fmt.Errorf("workload: Params.Policy is required")
	}
	if p.Cluster.Nodes < 1 || p.Cluster.CoresPerNode < 1 {
		return nil, fmt.Errorf("workload: invalid cluster inventory %d nodes x %d cores",
			p.Cluster.Nodes, p.Cluster.CoresPerNode)
	}
	e := &engine{
		p:     p,
		total: p.Cluster.Nodes * p.Cluster.CoresPerNode,
		tau:   p.SlowdownTau,
		cost:  p.Cost,
	}
	if e.tau <= 0 {
		e.tau = 10
	}
	if e.cost == nil {
		e.cost = func(int, int, int64) float64 { return 0 }
	}
	for _, j := range jobs {
		if err := rms.ValidateJob(j, e.total); err != nil {
			return nil, err
		}
		// MaxProcs defaults to Procs and is capped by the machine.
		if j.MaxProcs < j.Procs {
			j.MaxProcs = j.Procs
		}
		if j.MaxProcs > e.total {
			j.MaxProcs = e.total
		}
		e.jobs = append(e.jobs, &jobRun{Job: j, remaining: j.Work})
	}
	// FCFS order: arrival time, submission index breaking ties.
	sort.SliceStable(e.jobs, func(a, b int) bool { return e.jobs[a].Arrival < e.jobs[b].Arrival })
	return e, nil
}

// run drives the event loop. Every wake-up is one scheduling pass, but a
// pass that changes no scheduling state leaves the next pass at the same
// instant with exactly its own inputs (advance(now, now) is a no-op), so
// the remaining wake-ups at that instant are folded: they re-arm the
// same completion estimate and observe the same queue depth, without
// running. Every pass that could change state still runs, in order.
func (e *engine) run() (Result, error) {
	q := wakeQueue{count: make(map[float64]int)}
	for _, j := range e.jobs {
		q.add(j.Arrival, 1)
	}
	now := 0.0
	remainingJobs := len(e.jobs)
	// A hard ceiling on popped instants turns a scheduling livelock into
	// an error instead of a hang; real traces stay far below it (an
	// instant per arrival, completion, and pause expiry).
	maxEvents := 4000*len(e.jobs) + 65536
	for len(q.ts) > 0 && remainingJobs > 0 {
		if e.pops++; e.pops > maxEvents {
			return Result{}, fmt.Errorf("workload: scheduler stalled after too many events (%d jobs unfinished)", remainingJobs)
		}
		t, k := q.pop()
		if t < now {
			t = now
		}
		remainingJobs -= e.advance(now, t)
		now = t
		ps := e.schedule(now, &q)
		for k--; k > 0 && remainingJobs > 0; k-- {
			if !ps.changed {
				e.fold(ps, k, &q)
				break
			}
			ps = e.schedule(now, &q)
		}
	}
	if remainingJobs > 0 {
		return Result{}, fmt.Errorf("workload: scheduler stalled with %d jobs unfinished at t=%g", remainingJobs, now)
	}
	return e.result(), nil
}

// fold stands in for k repeats of the unchanged pass ps: it re-arms their
// completion wake-ups and makes their queue-depth observations.
func (e *engine) fold(ps pass, k int, q *wakeQueue) {
	if !math.IsInf(ps.nextDone, 1) {
		q.add(ps.nextDone, k)
	}
	if s := e.p.Telemetry; s != nil {
		s.ObserveNamedN("queue/depth", float64(ps.queued), k)
	}
}

// advance progresses running jobs over [from, to] and returns how many
// completed. A reconfiguring job is frozen until its pause expires.
func (e *engine) advance(from, to float64) int {
	completed := 0
	for _, j := range e.active {
		if j.done {
			continue
		}
		start := from
		if j.pausedUntil > start {
			start = j.pausedUntil
		}
		runFor := to - start
		if runFor <= 0 || j.alloc <= 0 {
			continue
		}
		j.remaining -= runFor * float64(j.alloc)
		e.used += runFor * float64(j.alloc)
		if j.remaining <= workEps {
			// Give back the overshoot so UsedCoreSeconds conserves work
			// exactly (j.remaining is <= 0 here).
			e.used += j.remaining
			j.remaining = 0
			j.done = true
			j.end = to
			j.alloc = 0
			completed++
			e.observeDone(j)
		}
	}
	return completed
}

// observeDone folds one finished job into the telemetry stream.
func (e *engine) observeDone(j *jobRun) {
	s := e.p.Telemetry
	if s == nil {
		return
	}
	run := j.end - j.start
	s.ObserveNamed("job/wait", j.start-j.Arrival)
	s.ObserveNamed("job/slowdown", boundedSlowdown(j.start-j.Arrival, run, e.tau))
	s.Record(trace.Event{Kind: trace.EvPhase, Op: "job/run", Start: j.start, End: j.end, Bytes: j.DataBytes})
}

// boundedSlowdown is (wait + run) / max(tau, run), floored at 1.
func boundedSlowdown(wait, run, tau float64) float64 {
	den := run
	if den < tau {
		den = tau
	}
	if den <= 0 {
		return 1
	}
	s := (wait + run) / den
	if s < 1 {
		return 1
	}
	return s
}

// schedule is one scheduling pass at an event instant: admit arrivals
// (FCFS with conservative EASY backfill), let the policy distribute spare
// cores among running malleable jobs, price the allocation changes, and
// arm the next wake-ups.
func (e *engine) schedule(now float64, q *wakeQueue) pass {
	// Newly arrived jobs join the FIFO queue.
	arrived := e.nextArr
	for e.nextArr < len(e.jobs) && e.jobs[e.nextArr].Arrival <= now+timeEps {
		e.waiting = append(e.waiting, e.jobs[e.nextArr])
		e.nextArr++
	}
	// Drop finished jobs from the active set.
	alive := e.active[:0]
	for _, j := range e.active {
		if !j.done {
			alive = append(alive, j)
		}
	}
	changed := e.nextArr != arrived || len(alive) != len(e.active)
	e.active = alive

	// Free cores after minimum holds: a reconfiguring job holds its new
	// allocation for the pause (the handoff is immediate in the fluid
	// model; the pause is the redistribution freeze), every other running
	// job is reclaimable down to its minimum.
	free := e.total
	for _, j := range e.active {
		if now < j.pausedUntil {
			free -= j.alloc
		} else {
			free -= j.Procs
		}
	}

	// Admission: FCFS while the head fits; when it blocks, compute its
	// reservation and backfill only jobs guaranteed (at their minimum
	// allocation, their slowest shape) to finish before it.
	started := 0
	for qi, j := range e.waiting {
		if j.Procs <= free {
			e.startJob(j, now)
			free -= j.Procs
			started++
			continue
		}
		if !e.p.DisableBackfill {
			r := e.reservation(now, j.Procs, free)
			for _, k := range e.waiting[qi+1:] {
				if k.Procs <= free && now+k.Work/float64(k.Procs) <= r+timeEps {
					e.startJob(k, now)
					free -= k.Procs
					started++
				}
			}
		}
		break
	}
	if started > 0 {
		changed = true
		still := e.waiting[:0]
		for _, j := range e.waiting {
			if !j.started {
				still = append(still, j)
			}
		}
		e.waiting = still
	}
	queued := len(e.waiting)
	if queued > e.maxQueue {
		e.maxQueue = queued
	}
	if s := e.p.Telemetry; s != nil {
		s.ObserveNamed("queue/depth", float64(queued))
	}

	// Policy pass over unpaused malleable jobs.
	pjs, prun := e.pjs[:0], e.prun[:0]
	for _, j := range e.active {
		if !j.Malleable || now < j.pausedUntil {
			continue
		}
		pjs = append(pjs, PolicyJob{
			ID: j.ID, Procs: j.Procs, MaxProcs: j.MaxProcs,
			Alloc: j.alloc, Remaining: j.remaining, DataBytes: j.DataBytes,
		})
		prun = append(prun, j)
	}
	e.pjs, e.prun = pjs, prun
	if len(pjs) > 0 {
		targets := e.p.Policy.Target(pjs, free, queued, e.cost)
		if len(targets) != len(pjs) {
			panic(fmt.Sprintf("workload: policy %s returned %d targets for %d jobs",
				e.p.Policy.Name(), len(targets), len(pjs)))
		}
		if e.applyTargets(now, q, pjs, prun, targets, free) {
			changed = true
		}
	}

	// Arm the next completion wake-up and track the allocation peak. Only
	// the earliest estimate is armed: allocations change only at events,
	// so nothing can complete before it, and the pass it triggers re-arms
	// the following one. Every pass re-arms it, so the queue still sees
	// one duplicate per pass until the estimate comes due; the queue
	// merges them and the event loop folds the passes they would trigger.
	allocated := 0
	nextDone := math.Inf(1)
	for _, j := range e.active {
		allocated += j.alloc
		if j.alloc <= 0 {
			continue
		}
		startAt := now
		if j.pausedUntil > startAt {
			startAt = j.pausedUntil
		}
		if est := startAt + j.remaining/float64(j.alloc); est < nextDone {
			nextDone = est
		}
	}
	if !math.IsInf(nextDone, 1) {
		q.add(nextDone, 1)
	}
	if allocated > e.peakCores {
		e.peakCores = allocated
	}
	return pass{changed: changed, queued: queued, nextDone: nextDone}
}

// startJob launches a queued job at its minimum allocation. The launch
// itself is not a reconfiguration: a policy expansion in the same pass is
// free, so a job that launches into idle cores pays no reconfiguration.
func (e *engine) startJob(j *jobRun, now float64) {
	j.started = true
	j.start = now
	j.alloc = j.Procs
	j.lastAllocSet = false
	e.active = append(e.active, j)
}

// reservation estimates when `need` cores will be free for the blocked
// queue head: running jobs release their minimum holds at their estimated
// completions (current allocation, no further malleability). Backfill
// candidates must finish before this instant.
func (e *engine) reservation(now float64, need, free int) float64 {
	rels := e.rels[:0]
	for _, j := range e.active {
		if j.done {
			continue
		}
		hold := j.Procs
		if now < j.pausedUntil {
			hold = j.alloc
		}
		alloc := j.alloc
		if alloc <= 0 {
			alloc = j.Procs
		}
		startAt := now
		if j.pausedUntil > startAt {
			startAt = j.pausedUntil
		}
		rels = append(rels, release{t: startAt + j.remaining/float64(alloc), cores: hold})
	}
	e.rels = rels
	// The order of equal instants is immaterial: the answer is an instant,
	// and every release at it is counted before a later one.
	slices.SortFunc(rels, func(a, b release) int { return cmp.Compare(a.t, b.t) })
	avail := free
	for _, r := range rels {
		avail += r.cores
		if avail >= need {
			return r.t
		}
	}
	return math.Inf(1)
}

// applyTargets clamps, budget-trims, prices, and installs the policy's
// allocation targets, reporting whether any job's allocation state
// changed.
func (e *engine) applyTargets(now float64, q *wakeQueue, pjs []PolicyJob, prun []*jobRun, targets []int, free int) bool {
	changed := false
	extra := 0
	for i, pj := range pjs {
		t := targets[i]
		if t < pj.Procs {
			t = pj.Procs
		}
		if t > pj.MaxProcs {
			t = pj.MaxProcs
		}
		targets[i] = t
		extra += t - pj.Procs
	}
	// Deterministic trim of an over-committing policy: repeatedly shrink
	// the most-expanded target (later job on ties) until the budget fits.
	for extra > free {
		best, bestExtra := -1, 0
		for i, pj := range pjs {
			if ex := targets[i] - pj.Procs; ex >= bestExtra && ex > 0 {
				best, bestExtra = i, ex
			}
		}
		if best < 0 {
			break
		}
		targets[best]--
		extra--
	}
	for i, j := range prun {
		t := targets[i]
		if j.lastAllocSet && t > j.alloc {
			// Refuse expansions that hurt the job itself: pausing for the
			// redistribution plus finishing at the wider shape must beat
			// simply running on at the current one. Shrinks are never
			// skipped — admission already counted those cores as free.
			c := e.cost(j.alloc, t, j.DataBytes)
			if c > 0 && j.remaining/float64(j.alloc) <= c+j.remaining/float64(t)+timeEps {
				t = j.alloc
			}
		}
		if !j.lastAllocSet || t != j.alloc {
			changed = true
		}
		if j.lastAllocSet && t != j.alloc {
			j.reconfigs++
			c := e.cost(j.alloc, t, j.DataBytes)
			if !math.IsNaN(c) && !math.IsInf(c, 0) && c > 0 {
				j.pausedUntil = now + c
				j.reconfigSec += c
				q.add(j.pausedUntil, 1)
				if s := e.p.Telemetry; s != nil {
					s.Record(trace.Event{Kind: trace.EvPhase, Op: "job/reconfig",
						Start: now, End: now + c, Bytes: j.DataBytes})
				}
			}
		}
		j.alloc = t
		j.lastAllocSet = true
	}
	return changed
}

// result assembles the final report in FCFS order.
func (e *engine) result() Result {
	res := Result{Jobs: make([]JobResult, 0, len(e.jobs))}
	var slowdowns []float64
	for _, j := range e.jobs {
		run := j.end - j.start
		sld := boundedSlowdown(j.start-j.Arrival, run, e.tau)
		res.Jobs = append(res.Jobs, JobResult{
			ID: j.ID, Malleable: j.Malleable,
			Arrival: j.Arrival, Start: j.start, End: j.end,
			Wait: j.start - j.Arrival, Slowdown: sld,
			Reconfigs: j.reconfigs, ReconfigSeconds: j.reconfigSec,
		})
		slowdowns = append(slowdowns, sld)
		res.MeanWait += j.start - j.Arrival
		res.MeanSlowdown += sld
		if sld > res.MaxSlowdown {
			res.MaxSlowdown = sld
		}
		res.Reconfigs += j.reconfigs
		res.ReconfigSeconds += j.reconfigSec
		if j.end > res.Makespan {
			res.Makespan = j.end
		}
	}
	n := len(e.jobs)
	if n > 0 {
		res.MeanWait /= float64(n)
		res.MeanSlowdown /= float64(n)
		sort.Float64s(slowdowns)
		idx := int(math.Ceil(0.95*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		res.P95Slowdown = slowdowns[idx]
	}
	res.UsedCoreSeconds = e.used
	if res.Makespan > 0 {
		res.Utilization = res.UsedCoreSeconds / (float64(e.total) * res.Makespan)
		res.Throughput = float64(n) / res.Makespan
	}
	res.PeakCores = e.peakCores
	res.MaxQueueDepth = e.maxQueue
	if s := e.p.Telemetry; s != nil {
		s.ObserveNamed("cell/utilization", res.Utilization)
	}
	return res
}
