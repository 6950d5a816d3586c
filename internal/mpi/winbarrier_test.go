package mpi

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestFenceDeadlockNamesCurrentStraggler: the deadlock reason is rendered
// when the report is built, so it names the member still missing then —
// g3 — and not g1, which was missing when rank 0 first parked.
func TestFenceDeadlockNamesCurrentStraggler(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	w.Launch(4, nil, func(c *Ctx, comm *Comm) {
		win := c.WinCreate(comm, Payload{})
		switch comm.Rank(c) {
		case 1:
			c.Sleep(1)
		case 3:
			return // never fences: the epoch wedges on g3
		}
		c.Fence(win)
	})
	err := w.Kernel().Run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("run = %v, want *sim.DeadlockError", err)
	}
	if len(de.Blocked) != 3 {
		t.Fatalf("blocked = %q, want ranks 0-2 in Fence", de.Blocked)
	}
	for _, b := range de.Blocked {
		if !strings.Contains(b, "Fence") || !strings.Contains(b, "waiting for g3") {
			t.Errorf("blocked %q does not name the Fence epoch and the current straggler g3", b)
		}
	}
}

// TestFenceCrashReleasesOnlyLastStraggler: a crash excuses the dead
// member. When it was the last member the epoch waited for, the survivors
// return at the crash; when another live member is still missing, they
// wait for it.
func TestFenceCrashReleasesOnlyLastStraggler(t *testing.T) {
	for _, tc := range []struct {
		name     string
		lateRank int     // arrives at 2 s; -1 for none
		want     float64 // when the survivors leave the Fence
	}{
		{"last straggler crashes", -1, 1},
		{"earlier member crashes", 3, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := testWorld(t, 2, 4, defaultTestOptions())
			left := map[int]float64{}
			comm := w.Launch(4, nil, func(c *Ctx, comm *Comm) {
				win := c.WinCreate(comm, Payload{})
				switch comm.Rank(c) {
				case 2:
					c.Sleep(10) // crashed at 1 s, before it fences
				case tc.lateRank:
					c.Sleep(2)
				}
				c.Fence(win)
				left[comm.Rank(c)] = c.Now()
			})
			w.Kernel().At(1, func() { w.KillProcess(comm.Member(2).GID()) })
			runWorld(t, w)
			if len(left) != 3 {
				t.Fatalf("left the Fence: %v, want ranks 0, 1, 3", left)
			}
			for r, at := range left {
				if at != tc.want {
					t.Errorf("rank %d left the Fence at %g, want %g", r, at, tc.want)
				}
			}
		})
	}
}

// fenceResumeGolden is the order and time at which ranks leave each of two
// Fences with staggered arrivals, equal-time ties and a crash.
// It pins the window barrier's wake sequence: one broadcast per arrival
// and one per crash. Waking only on completion reorders it.
const fenceResumeGolden = `fence0 r4 leaves t=0.75
fence0 r2 leaves t=0.75
fence0 r5 leaves t=0.75
fence0 r6 leaves t=0.75
fence0 r3 leaves t=0.75
fence0 r1 leaves t=0.75
fence0 r7 leaves t=0.75
fence0 r0 leaves t=0.75
fence1 r1 leaves t=1.5
fence1 r7 leaves t=1.5
fence1 r6 leaves t=1.5
fence1 r0 leaves t=1.5
fence1 r3 leaves t=1.5
fence1 r2 leaves t=1.5
fence1 r5 leaves t=1.5
`

// TestFenceResumeOrder replays staggered arrivals at Fence, with equal-time
// ties and one crash, and compares the resume order with the golden.
func TestFenceResumeOrder(t *testing.T) {
	w := testWorld(t, 2, 4, defaultTestOptions())
	var log strings.Builder
	delays := []float64{0.5, 0.25, 0.5, 0, 0.75, 0.25, 0, 0.5}
	comm := w.Launch(len(delays), nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		win := c.WinCreate(comm, Payload{})
		for f := 0; f < 2; f++ {
			c.Sleep(delays[(r+3*f)%len(delays)])
			c.Fence(win)
			fmt.Fprintf(&log, "fence%d r%d leaves t=%g\n", f, r, c.Now())
		}
	})
	w.Kernel().At(1.25, func() { w.KillProcess(comm.Member(4).GID()) })
	runWorld(t, w)
	if got := log.String(); got != fenceResumeGolden {
		t.Fatalf("resume order:\n%s\nwant:\n%s", got, fenceResumeGolden)
	}
}

// BenchmarkFence mirrors perfbench's mpi.fence_us probe: Fence over n
// ranks on nodes of 20 cores, after a warm-up epoch; the time is per
// Fence, as rank 0 sees it.
func BenchmarkFence(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			w := testWorld(b, (n+19)/20, 20, DefaultOptions())
			w.Launch(n, nil, func(c *Ctx, comm *Comm) {
				win := c.WinCreate(comm, Virtual(8))
				if comm.Rank(c) == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					c.Fence(win)
				}
				if comm.Rank(c) == 0 {
					b.StopTimer()
				}
			})
			if err := w.Kernel().Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
