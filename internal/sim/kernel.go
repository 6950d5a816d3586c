// Package sim implements a deterministic discrete-event simulation kernel
// with cooperative processes running in virtual time.
//
// The kernel owns a virtual clock and a priority queue of events. Simulated
// processes are coroutines that run one at a time: the scheduler switches to
// a process, and the process switches back when it blocks on a timer, a
// Signal, or process exit. A switch transfers control directly between the
// two stacks, without a trip through the Go scheduler's run queue. Because
// exactly one coroutine executes at any instant and ties are broken by
// sequence number, a simulation with a fixed set of inputs always produces
// the same trace.
//
// All kernel methods must be called from scheduler context: either from
// inside a running process or from an event callback. The kernel is not safe
// for concurrent use from arbitrary goroutines.
package sim

import (
	"fmt"
	"sort"
)

// Kernel is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; call NewKernel.
type Kernel struct {
	now    float64
	seq    uint64
	events *calQueue
	free   []*event // recycled events; see newEvent/recycle

	current *Proc

	live    map[*Proc]struct{}
	nextPID int

	running bool
	dead    bool
	failure error
}

// event is a scheduled callback or process wake. Events compare by (time,
// seq) so that simultaneous events fire in scheduling order, which keeps
// runs deterministic.
type event struct {
	at       float64
	seq      uint64
	fn       func()
	proc     *Proc // when non-nil, the event resumes proc instead of calling fn
	index    int   // calendar bucket index, -1 when popped
	gen      uint32
	canceled bool
}

// NewKernel returns a kernel with the clock at zero and no events.
func NewKernel() *Kernel {
	return &Kernel{
		events: newCalQueue(),
		live:   make(map[*Proc]struct{}),
	}
}

// Now reports the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Timer is a handle to a scheduled event. Cancel prevents a pending event
// from firing. Fired events are recycled, so the Timer snapshots the
// event's generation: a stale handle (its event already fired and was
// reused for a later schedule) can never cancel the new occupant.
type Timer struct {
	ev   *event
	gen  uint32
	when float64
}

// Cancel stops the timer. It reports whether the event was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.gen != t.gen || t.ev.canceled {
		return false
	}
	pending := t.ev.index >= 0
	t.ev.canceled = true
	return pending
}

// When reports the virtual time the timer fires at.
func (t *Timer) When() float64 { return t.when }

// newEvent takes an event off the freelist (or allocates one) and stamps
// the next sequence number on it.
func (k *Kernel) newEvent(at float64, fn func()) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		e.at, e.fn, e.canceled = at, fn, false
	} else {
		e = &event{at: at, fn: fn}
	}
	e.seq = k.seq
	k.seq++
	return e
}

// maxFreeEvents caps the event freelist. An uncapped freelist would pin
// the memory of the largest burst a run ever saw (millions of in-flight
// events at extreme scale) for the kernel's whole lifetime; beyond the cap,
// recycled events are dropped for the garbage collector to reclaim.
const maxFreeEvents = 4096

// recycle returns a popped event to the freelist, bumping its generation
// so outstanding Timer handles go stale. Past the freelist cap the event
// is released to the collector instead.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn, e.proc = nil, nil
	if len(k.free) >= maxFreeEvents {
		return
	}
	k.free = append(k.free, e)
}

// At schedules fn to run at virtual time at. Scheduling in the past is an
// error and panics: it would break causality.
func (k *Kernel) At(at float64, fn func()) *Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", at, k.now))
	}
	e := k.newEvent(at, fn)
	k.events.Push(e)
	return &Timer{ev: e, gen: e.gen, when: at}
}

// schedule wakes p at virtual time at. It stamps the next sequence number
// exactly as At does, so wakes interleave with callbacks in the same order,
// but it allocates neither a Timer nor a closure: the event carries p and
// Run resumes it. Nothing can cancel the wake, so a process that holds one
// is never deadlocked. The caller guarantees at >= now.
func (k *Kernel) schedule(at float64, p *Proc) {
	e := k.newEvent(at, nil)
	e.proc = p
	k.events.Push(e)
}

// After schedules fn to run d seconds of virtual time from now.
func (k *Kernel) After(d float64, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return k.At(k.now+d, fn)
}

// DeadlockError is returned by Run when live processes remain but no event
// can ever wake them.
type DeadlockError struct {
	Time    float64
	Blocked []string // "name: reason" for every live blocked process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%.6f with %d blocked processes: %v",
		e.Time, len(e.Blocked), e.Blocked)
}

// Run executes events until none remain. It returns nil on a clean drain,
// a *DeadlockError if processes remain blocked with an empty event queue,
// or the panic value of the first process that panicked.
func (k *Kernel) Run() error {
	if k.running || k.dead {
		panic("sim: Run called twice")
	}
	k.running = true
	for k.events.Len() > 0 {
		e := k.events.Pop()
		if e.canceled {
			k.recycle(e)
			continue
		}
		k.now = e.at
		fn, p := e.fn, e.proc
		k.recycle(e) // before fn: the callback may schedule and reuse it
		if p == nil {
			fn()
		} else if !p.finished {
			k.resumeProc(p)
		}
		if k.failure != nil {
			k.shutdown()
			return k.failure
		}
	}
	k.running = false
	if len(k.live) > 0 {
		var blocked []string
		for p := range k.live {
			blocked = append(blocked, p.name+": "+p.reason())
		}
		sort.Strings(blocked)
		err := &DeadlockError{Time: k.now, Blocked: blocked}
		k.failure = err
		k.shutdown()
		return err
	}
	k.dead = true
	return nil
}

// shutdown kills every live process so that Run leaks no coroutine.
func (k *Kernel) shutdown() {
	k.dead = true
	for len(k.live) > 0 {
		for p := range k.live {
			k.Kill(p)
			break
		}
	}
}

// resumeProc switches to p's coroutine and returns when p parks or exits.
// The coroutine is created at p's first resume, so a process killed before
// it ever ran exits without one.
func (k *Kernel) resumeProc(p *Proc) {
	if p.next == nil {
		if p.killed {
			p.finished = true
			delete(k.live, p)
			return
		}
		p.start()
	}
	prev := k.current
	k.current = p
	_, parked := p.next()
	k.current = prev
	if !parked {
		delete(k.live, p)
		if p.err != nil && k.failure == nil {
			k.failure = p.err
		}
	}
}
