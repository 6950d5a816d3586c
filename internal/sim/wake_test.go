package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestSleepersNeverReported: a process inside Sleep, SleepUntil or Yield
// holds its own pending wake, so the queue cannot drain under it and a
// deadlock report never names it, even while a peer is deadlocked. That
// is why those parks may carry fixed reasons.
func TestSleepersNeverReported(t *testing.T) {
	k := NewKernel()
	never := NewSignal("never")
	k.Spawn("stuck", func(p *Proc) { p.Wait(never) })
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(1)
		}
		p.Wait(never)
	})
	k.Spawn("until", func(p *Proc) {
		p.SleepUntil(2)
		p.SleepUntil(1) // in the past: wakes now
		p.Wait(never)
	})
	k.Spawn("yielder", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Yield()
		}
		p.SleepUntil(4)
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if de.Time != 4 {
		t.Errorf("report at t=%g, want 4: the last sleeper's wake", de.Time)
	}
	want := []string{"sleeper: waiting on signal never", "stuck: waiting on signal never", "until: waiting on signal never"}
	if !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("Blocked = %q, want %q", de.Blocked, want)
	}
	for _, b := range de.Blocked {
		if strings.Contains(b, "sleeping") || strings.Contains(b, "yielding") {
			t.Errorf("report names a sleeping process: %q", b)
		}
	}
}

// TestWakesKeepScheduleOrder: process wakes (Spawn, Broadcast, Sleep,
// Yield) take sequence numbers from the same counter as At callbacks, so
// everything due at one instant runs in the order it was scheduled.
func TestWakesKeepScheduleOrder(t *testing.T) {
	k := NewKernel()
	s := NewSignal("s")
	var got []string
	k.Spawn("waiter", func(p *Proc) {
		p.Wait(s)
		got = append(got, "waiter")
	})
	k.Spawn("leader", func(p *Proc) {
		k.At(1, func() { got = append(got, "at-before") })
		p.Sleep(1)
		got = append(got, "leader")
		k.At(1, func() { got = append(got, "at-after-wake") })
		s.Broadcast()
		k.At(1, func() { got = append(got, "at-after-broadcast") })
		p.Yield()
		got = append(got, "leader-yielded")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"at-before", "leader", "at-after-wake", "waiter", "at-after-broadcast", "leader-yielded"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestParkWakeAllocations: once the event freelist is warm, a Broadcast
// that resumes a waiter which re-parks, a Broadcast whose wake a WaitUntil
// absorbs in the kernel, and a Sleep round trip allocate nothing: wakes
// carry the process instead of a Timer and a closure, and park reasons are
// not formatted.
func TestParkWakeAllocations(t *testing.T) {
	k := NewKernel()
	s, u := NewSignal("s"), NewSignal("u")
	done := false
	var resume, repark, sleep float64
	var reparks uint64
	k.Spawn("plain", func(p *Proc) {
		for !done {
			p.Wait(s)
		}
	})
	k.Spawn("until", func(p *Proc) {
		p.WaitUntil(u, CondFunc(func() bool { return done }), func() string { return "lazy" })
	})
	k.Spawn("leader", func(p *Proc) {
		p.Yield() // let both waiters park
		resume = testing.AllocsPerRun(100, func() {
			s.Broadcast()
			p.Yield() // behind the wake: the waiter has resumed and re-parked
		})
		before := k.Stats().Reparks
		repark = testing.AllocsPerRun(100, func() {
			u.Broadcast()
			p.Yield() // behind the wake: the kernel has re-parked the waiter
		})
		reparks = k.Stats().Reparks - before
		sleep = testing.AllocsPerRun(100, func() { p.Sleep(0.5) })
		done = true
		s.Broadcast()
		u.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if resume != 0 {
		t.Errorf("Broadcast, resume and re-park of a Wait loop: %g allocs per op, want 0", resume)
	}
	if repark != 0 {
		t.Errorf("Broadcast and kernel re-park of a WaitUntil: %g allocs per op, want 0", repark)
	}
	if reparks != 101 { // AllocsPerRun adds a warm-up call
		t.Errorf("the WaitUntil was re-parked %d times, want 101", reparks)
	}
	if sleep != 0 {
		t.Errorf("Sleep round trip: %g allocs per op, want 0", sleep)
	}
	// The handler interface (a wake is a *Proc under another type) fits
	// in the 48-byte size class.
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(event{}) != 48 {
		t.Errorf("sizeof(event) = %d, want 48", unsafe.Sizeof(event{}))
	}
}

// countHandler is a typed handler that counts its fires.
type countHandler int

func (c *countHandler) Fire() { *c++ }

// TestHandlerAllocations: once the event freelist is warm, scheduling a
// typed handler or a prebuilt callback, cancelling and re-arming it, and
// firing it allocate nothing: the Timer is a value and the event holds the
// handler itself.
func TestHandlerAllocations(t *testing.T) {
	k := NewKernel()
	var c countHandler
	fn := func() { c++ }
	var handler, callback float64
	k.Spawn("driver", func(p *Proc) {
		handler = testing.AllocsPerRun(100, func() {
			k.AfterHandler(2, &c).Cancel()
			k.AtHandler(p.Now()+0.5, &c)
			p.Sleep(1)
		})
		callback = testing.AllocsPerRun(100, func() {
			k.After(2, fn).Cancel()
			k.At(p.Now()+0.5, fn)
			p.Sleep(1)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c != 202 { // AllocsPerRun adds a warm-up call to each 100 runs
		t.Fatalf("handlers fired %d times, want 202", c)
	}
	if handler != 0 {
		t.Errorf("AtHandler, Cancel and fire: %g allocs per op, want 0", handler)
	}
	if callback != 0 {
		t.Errorf("At of a prebuilt callback, Cancel and fire: %g allocs per op, want 0", callback)
	}
}

// BenchmarkWake times one Broadcast that wakes n parked processes, each of
// which re-parks on the same signal; the time is per Broadcast round.
func BenchmarkWake(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k := NewKernel()
			s := NewSignal("s")
			done := false
			for i := 0; i < n; i++ {
				k.Spawn("waiter", func(p *Proc) {
					for !done {
						p.Wait(s)
					}
				})
			}
			k.Spawn("leader", func(p *Proc) {
				p.Yield() // every waiter has parked
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Broadcast()
					p.Yield() // behind the n wakes
				}
				b.StopTimer()
				done = true
				s.Broadcast()
			})
			if err := k.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
