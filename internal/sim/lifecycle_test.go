package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// settles waits until the goroutine count is back at base or below: a
// process's coroutine goroutine must be gone once Run has returned.
func settles(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Errorf("%s: %d goroutines, want at most the %d before Run", what, runtime.NumGoroutine(), base)
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNoGoroutineLeaks: whichever way Run ends — a clean drain, a
// deadlock, a process panic, or kills of parked processes — every
// process's coroutine has exited by the time it returns.
func TestNoGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()
	cases := []struct {
		name  string
		build func(k *Kernel)
		ok    func(error) bool
	}{
		{"clean drain", func(k *Kernel) {
			s := NewSignal("s")
			for i := 0; i < 8; i++ {
				k.Spawn("waiter", func(p *Proc) { p.Wait(s); p.Sleep(1) })
			}
			k.Spawn("leader", func(p *Proc) { p.Sleep(1); s.Broadcast() })
		}, func(err error) bool { return err == nil }},
		{"deadlock", func(k *Kernel) {
			never := NewSignal("never")
			for i := 0; i < 8; i++ {
				k.Spawn("stuck", func(p *Proc) { p.Sleep(1); p.Wait(never) })
			}
		}, func(err error) bool { _, ok := err.(*DeadlockError); return ok }},
		{"panic", func(k *Kernel) {
			never := NewSignal("never")
			for i := 0; i < 8; i++ {
				k.Spawn("parked", func(p *Proc) { p.Wait(never) })
			}
			k.Spawn("boom", func(p *Proc) { p.Sleep(1); panic("boom") })
		}, func(err error) bool { return err != nil }},
		{"KillAt of parked processes", func(k *Kernel) {
			never := NewSignal("never")
			for i := 0; i < 8; i++ {
				k.KillAt(2, k.Spawn("victim", func(p *Proc) { p.Wait(never) }))
			}
		}, func(err error) bool { return err == nil }},
	}
	for _, c := range cases {
		k := NewKernel()
		c.build(k)
		if err := k.Run(); !c.ok(err) {
			t.Errorf("%s: Run() = %v", c.name, err)
		}
		if len(k.live) != 0 {
			t.Errorf("%s: %d processes still live after Run", c.name, len(k.live))
		}
		settles(t, c.name, base)
	}
}

// TestKillBeforeStartRunsNothing: a process killed before its first
// resume never runs its body and never gets a coroutine.
func TestKillBeforeStartRunsNothing(t *testing.T) {
	k := NewKernel()
	base := runtime.NumGoroutine()
	ran := false
	var victim *Proc
	// Scheduled first, so it fires before the victim's start wake.
	k.At(0, func() {
		k.Kill(victim)
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines after the kill, want at most %d", n, base)
		}
	})
	victim = k.Spawn("victim", func(p *Proc) { ran = true })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("the body of a process killed before it started ran")
	}
	if victim.next != nil {
		t.Error("a coroutine was created for a process killed before it started")
	}
	if !victim.finished {
		t.Error("the killed process is not finished")
	}
}

// TestKillFromInsideProc: a running process that kills a parked one
// resumes it to unwind (its defers run) and gets control back at the same
// virtual instant. The victim's later wake is ignored.
func TestKillFromInsideProc(t *testing.T) {
	k := NewKernel()
	s := NewSignal("s")
	var got []string
	victim := k.Spawn("victim", func(p *Proc) {
		defer func() { got = append(got, fmt.Sprintf("victim unwound at %g", p.Now())) }()
		p.Wait(s)
		got = append(got, "victim woke")
	})
	k.Spawn("killer", func(p *Proc) {
		p.Sleep(2)
		k.Kill(victim)
		got = append(got, fmt.Sprintf("killer resumed at %g", p.Now()))
		s.Broadcast() // wakes the dead victim: Run skips it
		p.Sleep(1)    // parking again needs the kernel to see the killer as running
		got = append(got, fmt.Sprintf("killer done at %g", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"victim unwound at 2", "killer resumed at 2", "killer done at 3"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// BenchmarkSpawn times the whole life of n processes that each park once
// on a signal and exit after one Broadcast: coroutine creation at the first
// resume, the park, the wake and the exit. The time is per kernel run.
func BenchmarkSpawn(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k := NewKernel()
				s := NewSignal("s")
				for j := 0; j < n; j++ {
					k.Spawn("waiter", func(p *Proc) { p.Wait(s) })
				}
				k.At(0, s.Broadcast) // behind every start wake
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
