package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a simulated process: a goroutine that runs in virtual time under
// the kernel's cooperative scheduler. A Proc may only call kernel methods
// while it is the running process.
type Proc struct {
	k      *Kernel
	pid    int
	name   string
	resume chan resumeMsg

	// The block reason for deadlock reports, rendered only when a report
	// is built: a fixed string, a function (WaitReasonFunc), or the
	// signal a plain Wait parked on.
	blockReason   string
	blockReasonFn func() string
	blockSig      *Signal
	finished      bool
}

// procKilled is the panic value used to unwind a process goroutine during
// kernel shutdown. It never escapes the package.
type procKilled struct{}

// Spawn creates a process named name running fn and schedules it to start at
// the current virtual time. It may be called before Run or from scheduler
// context during the simulation.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	if k.dead {
		panic("sim: Spawn on finished kernel")
	}
	p := &Proc{
		k:      k,
		pid:    k.nextPID,
		name:   name,
		resume: make(chan resumeMsg),
	}
	k.nextPID++
	k.live[p] = struct{}{}
	go p.run(fn)
	k.schedule(k.now, p)
	return p
}

func (p *Proc) run(fn func(p *Proc)) {
	msg := <-p.resume // wait for first schedule
	if msg.kill {
		p.finished = true
		p.k.yield <- yieldMsg{proc: p, done: true}
		return
	}
	defer func() {
		r := recover()
		p.finished = true
		var err error
		if r != nil {
			if _, killed := r.(procKilled); !killed {
				// Preserve typed error panic values so callers can unwrap
				// them (errors.As) from Kernel.Run's return.
				if perr, ok := r.(error); ok {
					err = fmt.Errorf("sim: process %q panicked: %w\n%s", p.name, perr, debug.Stack())
				} else {
					err = fmt.Errorf("sim: process %q panicked: %v\n%s", p.name, r, debug.Stack())
				}
			}
		}
		p.k.yield <- yieldMsg{proc: p, done: true, err: err}
	}()
	fn(p)
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// PID returns the process identifier, unique within the kernel.
func (p *Proc) PID() int { return p.pid }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// park blocks the process until another component unparks it. reason is
// surfaced in deadlock reports.
func (p *Proc) park(reason string) {
	if p.k.current != p {
		panic("sim: park called by a process that is not running")
	}
	p.blockReason = reason
	p.k.yield <- yieldMsg{proc: p}
	msg := <-p.resume
	p.blockReason, p.blockReasonFn, p.blockSig = "", nil, nil
	if msg.kill {
		panic(procKilled{})
	}
}

// reason renders the block reason of a parked process.
func (p *Proc) reason() string {
	switch {
	case p.blockReasonFn != nil:
		return p.blockReasonFn()
	case p.blockSig != nil:
		return "waiting on signal " + p.blockSig.name
	}
	return p.blockReason
}

// Kill terminates the process: its goroutine unwinds (deferred functions
// run) and it never executes again. Kill must be called from scheduler
// context and not by the process on itself. It is the failure-injection
// primitive: peers blocked on a killed process surface as a DeadlockError
// when the event queue drains.
func (k *Kernel) Kill(p *Proc) {
	if p == nil || p.finished {
		return
	}
	if k.current == p {
		panic("sim: a process cannot Kill itself")
	}
	k.resumeProc(p, resumeMsg{kill: true})
}

// KillAt schedules the process's termination at virtual time t.
func (k *Kernel) KillAt(t float64, p *Proc) *Timer {
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
// are treated as now.
func (p *Proc) SleepUntil(t float64) {
	if t < p.k.now {
		t = p.k.now
	}
	p.k.schedule(t, p)
	p.park("sleeping")
}

// Yield reschedules the process behind all events already pending at the
// current instant, giving other runnable processes a chance to run.
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

// WaitReasonFunc blocks like WaitReason, but reason is called only if a
// deadlock report is built while the process is parked. It suits waits
// whose description is costly to format and re-parked often; reason
// describes the state at report time, not at the park.
func (p *Proc) WaitReasonFunc(s *Signal, reason func() string) {
	s.waiters = append(s.waiters, p)
	p.blockReasonFn = reason
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

// NumWaiters reports how many processes are blocked on s.
func (s *Signal) NumWaiters() int { return len(s.waiters) }
