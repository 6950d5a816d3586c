package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process: a coroutine that runs in virtual time under
// the kernel's cooperative scheduler. A Proc may only call kernel methods
// while it is the running process.
type Proc struct {
	k    *Kernel
	pid  int
	name string

	// The coroutine, created at the first resume (start): fn is the body
	// until then. next switches into the coroutine and returns when it
	// parks (true) or exits (false); yield, called inside it, switches
	// back.
	fn    func(p *Proc)
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	killed   bool  // set by Kill: the process unwinds at its next resume
	finished bool  // the body has returned or unwound
	err      error // the panic that ended the process, for Run to return

	// The block reason for deadlock reports, rendered only when a report
	// is built: a fixed string, a function or a fmt.Stringer condition
	// (WaitUntil), or the signal a plain Wait parked on.
	blockReason   string
	blockReasonFn func() string
	blockSig      *Signal

	// cond is the condition of a WaitUntil in progress: a wake tests it in
	// scheduler context and, while it is false, puts the process back on
	// blockSig instead of resuming it.
	cond Cond
}

// procKilled is the panic value used to unwind a killed process. It never
// escapes the package.
type procKilled struct{}

// Spawn creates a process named name running fn and schedules it to start at
// the current virtual time. It may be called before Run or from scheduler
// context during the simulation.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	if k.dead {
		panic("sim: Spawn on finished kernel")
	}
	p := &Proc{k: k, pid: k.nextPID, name: name, fn: fn}
	k.nextPID++
	k.live[p] = struct{}{}
	k.schedule(k.now, p)
	return p
}

// run is the body of p's coroutine. It turns a panic into p.err, except
// the procKilled that unwinds a killed process.
func (p *Proc) run() {
	defer func() {
		r := recover()
		p.finished = true
		if r != nil {
			if _, killed := r.(procKilled); !killed {
				// Preserve typed error panic values so callers can unwrap
				// them (errors.As) from Kernel.Run's return.
				if perr, ok := r.(error); ok {
					p.err = fmt.Errorf("sim: process %q panicked: %w\n%s", p.name, perr, debug.Stack())
				} else {
					p.err = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// Now reports the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// park blocks the process until another component unparks it. reason is
// surfaced in deadlock reports.
func (p *Proc) park(reason string) {
	if p.k.current != p {
		panic(fmt.Sprintf("sim: park called by process %q while it is not running (a WaitUntil condition must not block)", p.name))
	}
	p.blockReason = reason
	p.yield(struct{}{})
	p.blockReason, p.blockReasonFn, p.blockSig, p.cond = "", nil, nil, nil
	if p.killed {
		panic(procKilled{})
	}
}

// reason renders the block reason of a parked process.
func (p *Proc) reason() string {
	if p.blockReasonFn != nil {
		return p.blockReasonFn()
	}
	if c, ok := p.cond.(fmt.Stringer); ok {
		return c.String()
	}
	if p.blockSig != nil {
		return "waiting on signal " + p.blockSig.name
	}
	return p.blockReason
}

// Kill terminates the process: it unwinds (deferred functions run) and
// never executes again. Kill must be called from scheduler context and not
// by the process on itself; called from another running process, it
// returns to that process at the same virtual instant once the victim has
// unwound. It is the failure-injection primitive: peers blocked on a killed
// process surface as a DeadlockError when the event queue drains.
func (k *Kernel) Kill(p *Proc) {
	if p == nil || p.finished {
		return
	}
	if k.current == p {
		panic("sim: a process cannot Kill itself")
	}
	p.killed = true
	k.resumeProc(p)
}

// KillAt schedules the process's termination at virtual time t. Kept as
// the kernel-level kill seam the lifecycle tests drive; fault injection
// kills through mpi.World.KillProcess.
func (k *Kernel) KillAt(t float64, p *Proc) Timer {
	return k.At(t, func() { k.Kill(p) })
}

// Sleep, SleepUntil and Yield park with fixed reasons: the process holds
// its own pending wake, so the event queue cannot drain while it sleeps
// and no deadlock report ever names it.

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep(%g) with negative duration", d))
	}
	p.k.schedule(p.k.now+d, p)
	p.park("sleeping")
}

// SleepUntil suspends the process until virtual time t. Times in the past
// are treated as now. Kept as the absolute-time twin of Sleep that the
// kernel's wake-order tests schedule with.
func (p *Proc) SleepUntil(t float64) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.schedule(t, p)
	p.park("sleeping")
}

// Yield reschedules the process behind all events already pending at the
// current instant, giving other runnable processes a chance to run. Kept
// as the same-instant reschedule the kernel's wake-order tests pin.
func (p *Proc) Yield() {
	p.k.schedule(p.k.now, p)
	p.park("yielding")
}

// Signal is a broadcast condition in virtual time. Processes wait on it;
// Broadcast wakes every current waiter at the instant of the call. Signals
// are level-free: a Broadcast with no waiters is a no-op (no memory).
type Signal struct {
	name    string
	waiters []*Proc
}

// NewSignal returns a named signal. The name appears in deadlock reports.
func NewSignal(name string) *Signal { return &Signal{name: name} }

// Wait blocks the process until the next Broadcast on s.
func (p *Proc) Wait(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.blockSig = s
	p.park("")
}

// WaitReason blocks like Wait but surfaces reason (instead of the signal
// name) in deadlock reports, so callers can describe the operation they are
// actually blocked on.
func (p *Proc) WaitReason(s *Signal, reason string) {
	s.waiters = append(s.waiters, p)
	p.park(reason)
}

// Cond is the condition of a WaitUntil. Done is called in the waiting
// process before it parks and then once per wake in scheduler context,
// where no process is running, so it must be pure: it may read simulation
// state and update private bookkeeping (a cursor, the index it found), but
// it must not block, schedule an event, Broadcast or spawn. A wake whose
// condition schedules panics.
type Cond interface {
	Done() bool
}

// CondFunc adapts a predicate to Cond. A func value is pointer-shaped, so
// the conversion allocates nothing.
type CondFunc func() bool

// Done calls f.
func (f CondFunc) Done() bool { return f() }

// WaitUntil blocks the process until c holds, waking on Broadcasts of s.
// It behaves exactly like the loop
//
//	for !c.Done() { p.Wait(s) }
//
// with one difference in cost: a wake that finds c still false puts the
// process back on s from inside the kernel, without switching to its
// coroutine. The wake keeps its sequence number, and the process rejoins
// s's waiters where the loop's next Wait would have put it, so event
// order, and with it every output, is the same. When c holds, the process
// resumes and WaitUntil returns without testing c again.
// reason, if non-nil, is called only if a deadlock report is built while
// the process is parked; it describes the state at report time. With a nil
// reason, a condition that implements fmt.Stringer describes itself the
// same way, which spares a condition object a second allocation for a
// bound reason; otherwise the report names the signal.
func (p *Proc) WaitUntil(s *Signal, c Cond, reason func() string) {
	if c.Done() {
		return
	}
	s.waiters = append(s.waiters, p)
	p.blockSig, p.blockReasonFn, p.cond = s, reason, c
	p.park("")
}

// Broadcast wakes every process currently waiting on s. The waiters resume
// at the current virtual time, in the order they called Wait. Scheduling a
// wake runs no process, so no waiter can join s mid-loop, and the slice is
// kept for the next round of waiters.
func (s *Signal) Broadcast() {
	for i, p := range s.waiters {
		p.k.schedule(p.k.now, p)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}
