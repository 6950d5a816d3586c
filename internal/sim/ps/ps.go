// Package ps implements processor-sharing resources in virtual time.
//
// A Resource has a total service capacity (for a CPU: number of cores; each
// unit of capacity serves one unit of work per second) shared equally among
// the tasks currently attached to it, with an optional per-task rate cap
// (a single-threaded task cannot use more than one core). When tasks join or
// leave, every remaining task's service rate changes instantly — the fluid
// approximation of a time-sliced scheduler.
//
// This is the mechanism that reproduces oversubscription: 40 runnable
// contexts on a 20-core node each progress at half speed, exactly the effect
// the paper attributes to Baseline reconfigurations and polling waits.
package ps

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Resource is a processor-sharing server. Create with NewResource; the zero
// value is not usable. All methods must be called from scheduler context.
//
// Every operation costs O(finite tasks): load tasks have no state but their
// count, and finite tasks sit in an index-addressed slice with O(1)
// swap-remove. Slice order never reaches the output — every task receives
// the same service, the next completion is a minimum, and completions fire
// in seq order.
type Resource struct {
	k        *sim.Kernel
	name     string
	capacity float64 // total service rate (e.g. cores)
	perTask  float64 // max rate of one task (e.g. 1.0 core); 0 means no cap

	tasks      []*Task // attached finite tasks; tasks[t.idx] == t
	minRem     float64 // the least remaining work of tasks, +Inf with none
	loads      int     // attached load tasks
	lastUpdate float64
	timer      sim.Timer
	nextSeq    uint64
	completed  []*Task // onCompletion's scratch list, reused across completions
	completeFn func()  // onCompletion bound once, so arming allocates nothing
	waitReason string  // what a process blocked in Use shows in deadlock reports
}

// Waiter is what a Use blocks on: the task, a signal its completion
// broadcasts, and that Broadcast bound once. Its owner, a simulated thread
// that computes, keeps one for all its Use calls on any resource: a thread
// is in at most one Use at a time, and once the first has bound the
// Broadcast a steady stream of them allocates nothing. The zero value is
// ready for use.
type Waiter struct {
	task Task
	sig  sim.Signal
	wake func()
}

// Task is a unit of demand attached to a Resource. Finite tasks complete
// after their work is served; load tasks (see AddLoad) only consume capacity.
type Task struct {
	r         *Resource
	seq       uint64
	remaining float64
	done      func()
	idx       int // position in r.tasks while a finite task is attached
	infinite  bool
	stopped   bool
}

// NewResource creates a processor-sharing resource. capacity is the total
// service rate; perTask caps the rate a single task may receive (0 = no cap).
func NewResource(k *sim.Kernel, name string, capacity, perTask float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("ps: resource %q with non-positive capacity %g", name, capacity))
	}
	r := &Resource{
		k:          k,
		name:       name,
		waitReason: "waiting on signal ps:" + name,
		capacity:   capacity,
		perTask:    perTask,
		minRem:     math.Inf(1),
	}
	r.completeFn = r.onCompletion
	return r
}

// Capacity returns the total service rate.
func (r *Resource) Capacity() float64 { return r.capacity }

// Load reports the number of attached tasks (finite and load tasks).
func (r *Resource) Load() int { return r.loads + len(r.tasks) }

// Rate reports the current service rate of each task.
func (r *Resource) Rate() float64 {
	n := r.Load()
	if n == 0 {
		return 0
	}
	rate := r.capacity / float64(n)
	if r.perTask > 0 && rate > r.perTask {
		rate = r.perTask
	}
	return rate
}

// advance applies the service received since lastUpdate to all finite
// tasks, and finds the least remaining work in the same loop.
func (r *Resource) advance() {
	now := r.k.Now()
	elapsed := now - r.lastUpdate
	r.lastUpdate = now
	if elapsed <= 0 || len(r.tasks) == 0 {
		return
	}
	served := r.Rate() * elapsed
	minRem := math.Inf(1)
	for _, t := range r.tasks {
		t.remaining -= served
		if t.remaining < 0 {
			t.remaining = 0
		}
		if t.remaining < minRem {
			minRem = t.remaining
		}
	}
	r.minRem = minRem
}

// reschedule arms the completion timer for the earliest finishing task.
// Every task is served at the same positive rate, and dividing by it is
// monotone, so the least remaining work gives the least finishing time,
// bit for bit, without a scan.
func (r *Resource) reschedule() {
	r.timer.Cancel()
	rate := r.Rate()
	if rate <= 0 || len(r.tasks) == 0 {
		return
	}
	r.timer = r.k.After(r.minRem/rate, r.completeFn)
}

// detach marks a task stopped and removes it: a load from the count, a
// finite task from the slice by swapping the last task into its place.
// Only the removal of a task that held the least remaining work rescans
// for it.
func (r *Resource) detach(t *Task) {
	t.stopped = true
	if t.infinite {
		r.loads--
		return
	}
	last := r.tasks[len(r.tasks)-1]
	r.tasks[t.idx], last.idx = last, t.idx
	r.tasks[len(r.tasks)-1] = nil
	r.tasks = r.tasks[:len(r.tasks)-1]
	if t.remaining == r.minRem {
		r.minRem = math.Inf(1)
		for _, o := range r.tasks {
			r.minRem = min(r.minRem, o.remaining)
		}
	}
}

func (r *Resource) onCompletion() {
	r.advance()
	// Collect completions first: done callbacks may attach new tasks.
	finished := r.completed[:0]
	const eps = 1e-12
	now := r.k.Now()
	rate := r.Rate()
	// The scan also finds the least remaining work of the tasks that go
	// on, so detaching the finished ones rescans nothing.
	r.minRem = math.Inf(1)
	for _, t := range r.tasks {
		// Done when the residue is negligible or when serving it cannot
		// advance the clock (the completion event would re-fire at the same
		// timestamp forever).
		if t.remaining <= eps || (rate > 0 && now+t.remaining/rate == now) {
			finished = append(finished, t)
		} else if t.remaining < r.minRem {
			r.minRem = t.remaining
		}
	}
	// Slice order follows attach and swap-remove history; completion
	// callbacks fire in start order for reproducible simulations.
	slices.SortFunc(finished, func(a, b *Task) int { return cmp.Compare(a.seq, b.seq) })
	for _, t := range finished {
		r.detach(t)
	}
	r.reschedule()
	for _, t := range finished {
		if t.done != nil {
			t.done()
		}
	}
	clear(finished)
	r.completed = finished[:0]
}

// Start attaches a finite task demanding work units of service; done runs
// when the task completes. It returns a handle that can cancel the task.
func (r *Resource) Start(work float64, done func()) *Task {
	t := new(Task)
	r.start(t, work, done)
	return t
}

// start is Start into a caller-owned task, which must not be attached.
func (r *Resource) start(t *Task, work float64, done func()) {
	if work < 0 {
		panic(fmt.Sprintf("ps: negative work %g on %q", work, r.name))
	}
	r.advance()
	*t = Task{r: r, seq: r.nextSeq, remaining: work, done: done, idx: len(r.tasks)}
	r.nextSeq++
	r.tasks = append(r.tasks, t)
	r.minRem = min(r.minRem, work)
	r.reschedule()
	if work == 0 {
		// Zero work still goes through the queue-change cycle so a burst of
		// zero-cost tasks is deterministic, but completes immediately.
		r.k.After(0, func() {
			if !t.stopped {
				r.detach(t)
				r.advance()
				r.reschedule()
				if t.done != nil {
					t.done()
				}
			}
		})
	}
}

// AddLoad attaches a pure-load task: it consumes a fair share of the
// resource indefinitely (diluting everyone else) but never completes. This
// models a polling wait loop burning a core. Remove it with Stop.
func (r *Resource) AddLoad() *Task {
	t := new(Task)
	r.StartLoad(t)
	return t
}

// StartLoad is AddLoad into a caller-owned task, which must not be
// attached: a caller that loads the resource over and over (a polling
// wait) reuses one task and allocates nothing.
func (r *Resource) StartLoad(t *Task) {
	if t.r != nil && !t.stopped {
		panic(fmt.Sprintf("ps: StartLoad of a task still attached to %q", t.r.name))
	}
	r.advance()
	*t = Task{r: r, seq: r.nextSeq, infinite: true}
	r.nextSeq++
	r.loads++
	r.reschedule()
}

// Stop detaches the task. It reports whether the task was still attached.
// The done callback of a finite task does not run on Stop.
func (t *Task) Stop() bool {
	if t.stopped {
		return false
	}
	t.r.advance()
	t.r.detach(t)
	t.r.reschedule()
	return true
}

// Use blocks the calling process until work units of service have been
// delivered under processor sharing. It is the standard way for a simulated
// computation to consume CPU. The process blocks on w, which must not be
// in another Use.
func (r *Resource) Use(w *Waiter, p *sim.Proc, work float64) {
	if w.wake == nil {
		w.wake = w.sig.Broadcast
	}
	r.start(&w.task, work, w.wake)
	// Only the completion wakes w.sig, so once the wait returns the task
	// is detached and w is free again. A process killed while it waits
	// never returns; its task still completes, and wakes no one.
	p.WaitReason(&w.sig, r.waitReason)
}
