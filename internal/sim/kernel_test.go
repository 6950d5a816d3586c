package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", k.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []float64
	for _, at := range []float64{3, 1, 2, 0.5} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fire order = %v, want %v", got, want)
	}
}

func TestSimultaneousEventsFireInScheduleOrder(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(1, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at float64
	k.After(2.5, func() {
		k.After(1.5, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 4.0 {
		t.Fatalf("nested After fired at %g, want 4", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		k.At(1, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	tm := k.At(1, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel returned false for pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("canceled timer fired")
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var times []float64
	k.Spawn("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(1)
		times = append(times, p.Now())
		p.Sleep(2.5)
		times = append(times, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 3.5}
	if !reflect.DeepEqual(times, want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
}

func TestSleepUntilPastIsNow(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Sleep(5)
		p.SleepUntil(1) // in the past: no-op
		if p.Now() != 5 {
			t.Errorf("Now = %g, want 5", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel()
	var order []string
	mk := func(name string, d float64) {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Sleep(d)
				order = append(order, fmt.Sprintf("%s@%g", name, p.Now()))
			}
		})
	}
	mk("a", 1)
	mk("b", 1.5)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@1", "b@1.5", "a@2", "b@3", "a@3", "b@4.5"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSignalBroadcastWakesAllWaitersFIFO(t *testing.T) {
	k := NewKernel()
	s := NewSignal("go")
	var woke []string
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("w%d", i)
		k.Spawn(name, func(p *Proc) {
			p.Wait(s)
			woke = append(woke, p.name)
		})
	}
	k.Spawn("broadcaster", func(p *Proc) {
		p.Sleep(1)
		if len(s.waiters) != 4 {
			t.Errorf("%d waiters, want 4", len(s.waiters))
		}
		s.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"w0", "w1", "w2", "w3"}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("wake order = %v, want %v", woke, want)
	}
}

func TestBroadcastWithoutWaitersIsNoOp(t *testing.T) {
	k := NewKernel()
	s := NewSignal("s")
	k.Spawn("p", func(p *Proc) {
		s.Broadcast() // nothing waiting: no memory
		p.Sleep(1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	s := NewSignal("never")
	k.Spawn("stuck", func(p *Proc) { p.Wait(s) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(de.Blocked) != 1 || !strings.Contains(de.Blocked[0], "stuck") {
		t.Fatalf("Blocked = %v, want one entry mentioning 'stuck'", de.Blocked)
	}
	if !strings.Contains(de.Blocked[0], "never") {
		t.Fatalf("Blocked = %v, want signal name in reason", de.Blocked)
	}
}

// TestWaitUntilReasonRendersAtReport: a WaitUntil's lazy reason is not
// called while the wait is woken and re-parked, and the deadlock report
// renders it once, describing the state at report time rather than at the
// park.
func TestWaitUntilReasonRendersAtReport(t *testing.T) {
	k := NewKernel()
	s := NewSignal("s")
	calls, state := 0, "first"
	k.Spawn("waiter", func(p *Proc) {
		p.WaitUntil(s, CondFunc(func() bool { return false }),
			func() string { calls++; return "on " + state })
	})
	k.At(1, func() { s.Broadcast() })
	k.At(2, func() { state = "second" })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if calls != 1 {
		t.Errorf("reason rendered %d times, want once, at the report", calls)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "waiter: on second" {
		t.Fatalf("Blocked = %q, want [\"waiter: on second\"]", de.Blocked)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("boom", func(p *Proc) {
		p.Sleep(1)
		panic("kaboom")
	})
	k.Spawn("bystander", func(p *Proc) {
		s := NewSignal("never")
		p.Wait(s) // must be cleaned up, not leaked
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("Run() = %v, want panic error containing 'kaboom'", err)
	}
}

func TestSpawnFromInsideProc(t *testing.T) {
	k := NewKernel()
	var events []string
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(1)
		k.Spawn("child", func(c *Proc) {
			events = append(events, fmt.Sprintf("child-start@%g", c.Now()))
			c.Sleep(2)
			events = append(events, fmt.Sprintf("child-end@%g", c.Now()))
		})
		events = append(events, fmt.Sprintf("parent-after-spawn@%g", p.Now()))
		p.Sleep(0.5)
		events = append(events, fmt.Sprintf("parent-end@%g", p.Now()))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"parent-after-spawn@1", "child-start@1", "parent-end@1.5", "child-end@3"}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
}

func TestYieldLetsOthersRun(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestPIDsAreUnique(t *testing.T) {
	k := NewKernel()
	seen := map[int]bool{}
	for i := 0; i < 20; i++ {
		p := k.Spawn("p", func(p *Proc) {})
		if seen[p.pid] {
			t.Fatalf("duplicate PID %d", p.pid)
		}
		seen[p.pid] = true
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// runRandomWorkload runs a randomized but seeded workload and returns its
// trace, for the determinism property test.
func runRandomWorkload(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	k := NewKernel()
	var trace []string
	sig := NewSignal("shared")
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("p%d", i)
		delays := make([]float64, 5)
		for j := range delays {
			delays[j] = rng.Float64()
		}
		waits := rng.Intn(2) == 0
		k.Spawn(name, func(p *Proc) {
			for _, d := range delays {
				p.Sleep(d)
				trace = append(trace, fmt.Sprintf("%s@%.12g", name, p.Now()))
				if waits && len(sig.waiters) < 3 {
					// occasionally park on the shared signal
					if p.Now() < 1.5 {
						p.Wait(sig)
						trace = append(trace, fmt.Sprintf("%s-woke@%.12g", name, p.Now()))
					}
				} else {
					sig.Broadcast()
				}
			}
		})
	}
	k.Spawn("flusher", func(p *Proc) {
		for i := 0; i < 40; i++ {
			p.Sleep(0.25)
			sig.Broadcast()
		}
	})
	if err := k.Run(); err != nil {
		trace = append(trace, "ERR:"+err.Error())
	}
	return trace
}

func TestDeterminismProperty(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := runRandomWorkload(seed)
		b := runRandomWorkload(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: traces differ:\n%v\nvs\n%v", seed, a, b)
		}
	}
}

func TestRunTwicePanics(t *testing.T) {
	k := NewKernel()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	_ = k.Run()
}
