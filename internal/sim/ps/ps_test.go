package ps

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

const tol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSingleTaskRunsAtPerTaskCap(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 20, 1)
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 3) // 3 units of work at rate 1
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 3) {
		t.Fatalf("done at %g, want 3", done)
	}
}

func TestUncappedTaskUsesFullCapacity(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "nic", 10, 0)
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 30)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 3) {
		t.Fatalf("done at %g, want 3 (30 work / 10 capacity)", done)
	}
}

func TestEqualSharingBetweenTwoTasks(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	var d1, d2 float64
	k.Spawn("a", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 1)
		d1 = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 1)
		d2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share a single core: each runs at 0.5 → both finish at 2.
	if !near(d1, 2) || !near(d2, 2) {
		t.Fatalf("done at %g, %g, want 2, 2", d1, d2)
	}
}

func TestOversubscriptionDilatesCompute(t *testing.T) {
	// 20-core node, 40 single-core tasks: each task of 1s work takes 2s.
	k := sim.NewKernel()
	r := NewResource(k, "node0", 20, 1)
	var finish []float64
	for i := 0; i < 40; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			var w Waiter
			r.Use(&w, p, 1)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finish {
		if !near(f, 2) {
			t.Fatalf("finish at %g, want 2 under 2x oversubscription", f)
		}
	}
}

// TestUseAllocations: once each user's waiter and the kernel's event
// freelist are warm, a Use that blocks while other users share the
// resource (so every start and completion cancels and re-arms the
// completion timer) allocates nothing, whether one other process or many
// are blocked in Use on the resource at the same time.
func TestUseAllocations(t *testing.T) {
	for _, others := range []int{1, 100} {
		k := sim.NewKernel()
		r := NewResource(k, "node0", 1, 0)
		done := false
		var allocs float64
		for i := 0; i < others; i++ {
			k.Spawn("other", func(p *sim.Proc) {
				var w Waiter
				for !done {
					r.Use(&w, p, 0.3)
				}
			})
		}
		k.Spawn("user", func(p *sim.Proc) {
			var w Waiter
			r.Use(&w, p, 1)
			if got := r.Load(); got != others {
				t.Errorf("%d other users blocked in Use, want %d", got, others)
			}
			allocs = testing.AllocsPerRun(100, func() { r.Use(&w, p, 0.5) })
			done = true
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("Use with %d other users attached: %g allocs per op, want 0", others, allocs)
		}
	}
}

func TestNoDilationWhenUnderCapacity(t *testing.T) {
	// 20-core node, 10 single-core tasks: no slowdown.
	k := sim.NewKernel()
	r := NewResource(k, "node0", 20, 1)
	var finish []float64
	for i := 0; i < 10; i++ {
		k.Spawn("w", func(p *sim.Proc) {
			var w Waiter
			r.Use(&w, p, 1)
			finish = append(finish, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range finish {
		if !near(f, 1) {
			t.Fatalf("finish at %g, want 1", f)
		}
	}
}

func TestDynamicRateChange(t *testing.T) {
	// Task A (2 units) runs alone on 1 core for 1s (1 unit done), then B
	// arrives; both at 0.5. A's remaining unit takes 2s → A ends at 3.
	// B (0.5 units) gets 0.5 rate until A leaves... B: needs 0.5 at rate 0.5
	// → done at t=2. Then A alone finishes remaining 0.5 at rate 1 → 2.5.
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	var da, db float64
	k.Spawn("a", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 2)
		da = p.Now()
	})
	k.Spawn("b", func(p *sim.Proc) {
		var w Waiter
		p.Sleep(1)
		r.Use(&w, p, 0.5)
		db = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(db, 2) {
		t.Fatalf("b done at %g, want 2", db)
	}
	if !near(da, 2.5) {
		t.Fatalf("a done at %g, want 2.5", da)
	}
}

func TestAddLoadDilutesFiniteTasks(t *testing.T) {
	// One core; a spinner load plus one 1-unit task → task runs at 0.5.
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	load := r.AddLoad()
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 1)
		done = p.Now()
		load.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 2) {
		t.Fatalf("done at %g, want 2 with spinner load", done)
	}
}

// TestStartLoadReusesTask: one caller-owned task loads the resource again
// after each Stop, diluting a finite task exactly as fresh AddLoad tasks
// would, and restarting it while attached panics.
func TestStartLoadReusesTask(t *testing.T) {
	// Loaded over [0,1) and [2,3): a 3-unit task gets 0.5+1+0.5 by t=3,
	// then runs alone to finish at 4.
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	var load Task
	k.Spawn("spinner", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			r.StartLoad(&load)
			p.Sleep(1)
			load.Stop()
			p.Sleep(1)
		}
	})
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 3)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 4) {
		t.Fatalf("done at %g, want 4 with the load on for 2 of the first 3 s", done)
	}
	r.StartLoad(&load)
	defer func() {
		if recover() == nil {
			t.Error("StartLoad of an attached task did not panic")
		}
	}()
	r.StartLoad(&load)
}

func TestStopRemovesLoad(t *testing.T) {
	// Spinner stops at t=1: task (2 units) runs at 0.5 for 1s, then 1.0.
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	load := r.AddLoad()
	k.Spawn("stopper", func(p *sim.Proc) {
		p.Sleep(1)
		if !load.Stop() {
			t.Error("Stop returned false for live load")
		}
		if load.Stop() {
			t.Error("second Stop returned true")
		}
	})
	var done float64
	k.Spawn("p", func(p *sim.Proc) {
		var w Waiter
		r.Use(&w, p, 2)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 2.5) {
		t.Fatalf("done at %g, want 2.5", done)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	var done float64 = -1
	k.Spawn("p", func(p *sim.Proc) {
		var w Waiter
		p.Sleep(1)
		r.Use(&w, p, 0)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(done, 1) {
		t.Fatalf("done at %g, want 1", done)
	}
}

func TestStartCallbackFires(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 2, 1)
	var at float64 = -1
	k.At(0, func() {
		r.Start(4, func() { at = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !near(at, 4) {
		t.Fatalf("callback at %g, want 4", at)
	}
}

func TestTaskStopCancelsCompletion(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	fired := false
	var task *Task
	k.At(0, func() {
		task = r.Start(5, func() { fired = true })
	})
	k.At(1, func() { task.Stop() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("done callback fired after Stop")
	}
	if r.Load() != 0 {
		t.Fatalf("Load = %d after Stop, want 0", r.Load())
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	k := sim.NewKernel()
	r := NewResource(k, "cpu", 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Start(-1) did not panic")
		}
	}()
	r.Start(-1, nil)
}

func TestNonPositiveCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(cap=0) did not panic")
		}
	}()
	NewResource(sim.NewKernel(), "x", 0, 1)
}

// Property: total service conservation. With n equal tasks of equal work on
// one resource, every task finishes at n*work/min(capacity, n*perTask)... in
// the capped regime the finish time is work/rate with rate shared equally.
func TestPropertyEqualTasksFinishTogether(t *testing.T) {
	f := func(nRaw uint8, capRaw, workRaw uint16) bool {
		n := int(nRaw%16) + 1
		capacity := 1 + float64(capRaw%64)
		work := 0.001 + float64(workRaw)/1024
		k := sim.NewKernel()
		r := NewResource(k, "cpu", capacity, 1)
		finish := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			k.Spawn("w", func(p *sim.Proc) {
				var w Waiter
				r.Use(&w, p, work)
				finish = append(finish, p.Now())
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		rate := capacity / float64(n)
		if rate > 1 {
			rate = 1
		}
		want := work / rate
		for _, f := range finish {
			if !near(f, want) {
				return false
			}
		}
		return len(finish) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
