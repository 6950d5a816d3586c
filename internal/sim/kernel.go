// Package sim implements a deterministic discrete-event simulation kernel
// with cooperative processes running in virtual time.
//
// The kernel owns a virtual clock and a queue of pending events. Simulated
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
	now float64
	seq uint64
	// Pending events (queue.go): a min-heap over (at, seq), and the now
	// lane lane[laneHead:] of events due at exactly now, in seq order.
	heap     []*event
	lane     []*event
	laneHead int
	free     []*event // recycled events; see newEvent/recycle

	current *Proc

	live    map[*Proc]struct{}
	nextPID int

	running bool
	dead    bool
	failure error

	stats Stats
}

// Stats counts the kernel's work since NewKernel.
type Stats struct {
	// Events is the number of events fired: callbacks, typed handlers and
	// wakes. A cancelled event is not counted.
	Events uint64
	// Resumes is the number of switches into a process's coroutine: its
	// start, each wake that resumes it, and a Kill that unwinds it.
	Resumes uint64
	// Reparks is the number of wakes absorbed by the scheduler: a wake of
	// a WaitUntil whose condition was still false, which put the process
	// back on its signal without resuming it.
	Reparks uint64
}

// Stats reports the kernel's counters.
func (k *Kernel) Stats() Stats { return k.stats }

// event is a scheduled handler. Events compare by (time, seq) so that
// simultaneous events fire in scheduling order, which keeps runs
// deterministic.
type event struct {
	at    float64
	seq   uint64
	h     Handler // a callback (funcHandler), a typed handler, or a wake
	k     *Kernel // the owner, set once at allocation, for Timer.Cancel
	index int32   // heap position when >= 0, else unqueued, inLane or canceledLane
	gen   uint32
}

// Handler is an event callback that carries its own state. A component
// that schedules the same kind of event over and over (a flow's latency
// phase, a deferred message launch) implements Handler on a type it
// already owns, so scheduling allocates neither a closure nor a Timer.
type Handler interface {
	Fire()
}

// funcHandler adapts a plain callback. A func value is pointer-shaped, so
// storing one in a Handler does not allocate.
type funcHandler func()

func (f funcHandler) Fire() { f() }

// wake is the handler that resumes a process: Proc itself, under a type
// whose Fire switches to the process's coroutine. A process inside
// WaitUntil is resumed only once its condition holds; until then Fire
// appends it to its signal again, as the Wait the process would call on
// resuming would, and the wake costs no coroutine switch.
type wake Proc

func (w *wake) Fire() {
	p := (*Proc)(w)
	if p.finished {
		return
	}
	k := p.k
	if c := p.cond; c != nil {
		seq := k.seq
		done := c.Done()
		if k.seq != seq {
			panic(fmt.Sprintf("sim: the WaitUntil condition of process %q scheduled an event", p.name))
		}
		if !done {
			s := p.blockSig
			s.waiters = append(s.waiters, p)
			k.stats.Reparks++
			return
		}
	}
	k.resumeProc(p)
}

// NewKernel returns a kernel with the clock at zero and no events.
func NewKernel() *Kernel {
	return &Kernel{live: make(map[*Proc]struct{})}
}

// Now reports the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Timer is a handle to a scheduled event, returned by value: taking one
// allocates nothing. Cancel prevents a pending event from firing. Fired
// and cancelled events are recycled, so the Timer snapshots the event's
// generation: a stale handle (its event already fired or was cancelled,
// and was reused for a later schedule) can never cancel the new occupant.
// The zero Timer is a handle to nothing; its Cancel reports false.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel stops the timer. It reports whether the event was still pending.
// A pending heap event is removed and recycled at once; one in the now
// lane is flagged and skipped when the lane reaches it.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen {
		return false
	}
	e := t.ev
	switch {
	case e.index >= 0:
		e.k.removeAt(int(e.index))
		e.k.recycle(e)
		return true
	case e.index == inLane:
		e.index = canceledLane
		return true
	}
	return false
}

// newEvent takes an event off the freelist (or allocates one) and stamps
// the next sequence number on it.
func (k *Kernel) newEvent(at float64, h Handler) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		e.at, e.h = at, h
	} else {
		e = &event{at: at, h: h, k: k}
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

// recycle returns a popped or removed event to the freelist, bumping its
// generation so outstanding Timer handles go stale. Past the freelist cap
// the event is released to the collector instead.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.index = unqueued
	e.h = nil
	if len(k.free) >= maxFreeEvents {
		return
	}
	k.free = append(k.free, e)
}

// At schedules fn to run at virtual time at. Scheduling in the past is an
// error and panics: it would break causality.
func (k *Kernel) At(at float64, fn func()) Timer {
	return k.AtHandler(at, funcHandler(fn))
}

// AtHandler schedules h.Fire to run at virtual time at. It stamps the next
// sequence number exactly as At does.
func (k *Kernel) AtHandler(at float64, h Handler) Timer {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", at, k.now))
	}
	e := k.newEvent(at, h)
	k.push(e)
	return Timer{ev: e, gen: e.gen}
}

// schedule wakes p at virtual time at. It stamps the next sequence number
// exactly as At does, so wakes interleave with callbacks in the same order.
// Nothing can cancel the wake, so a process that holds one is never
// deadlocked. The caller guarantees at >= now.
func (k *Kernel) schedule(at float64, p *Proc) {
	k.push(k.newEvent(at, (*wake)(p)))
}

// After schedules fn to run d seconds of virtual time from now.
func (k *Kernel) After(d float64, fn func()) Timer {
	return k.AfterHandler(d, funcHandler(fn))
}

// AfterHandler schedules h.Fire to run d seconds of virtual time from now.
func (k *Kernel) AfterHandler(d float64, h Handler) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return k.AtHandler(k.now+d, h)
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
	for e := k.pop(); e != nil; e = k.pop() {
		if e.index == canceledLane {
			k.recycle(e)
			continue
		}
		k.now = e.at
		h := e.h
		k.recycle(e) // before Fire: the handler may schedule and reuse it
		k.stats.Events++
		h.Fire()
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
	k.stats.Resumes++
	_, parked := p.next()
	k.current = prev
	if !parked {
		delete(k.live, p)
		if p.err != nil && k.failure == nil {
			k.failure = p.err
		}
	}
}
