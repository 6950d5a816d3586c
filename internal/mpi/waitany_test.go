package mpi

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// waitanyLog is what a Waitany loop observes: each returned index with the
// virtual time of its return, and the kernel's counters at the end.
type waitanyLog struct {
	idxs  []int
	times []float64
	stats sim.Stats
}

// runWaitany drains n receives on rank 0 through waitany, while the n
// senders send at seeded times: several at one instant, some before rank 0
// first waits, each after a message outside the wait set.
func runWaitany(t *testing.T, seed int64, n int, waitany func(*Ctx, []Request) int) waitanyLog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	for i := range at {
		at[i] = float64(rng.Intn(8)) * 0.01
	}
	w := testWorld(t, 2, 8, defaultTestOptions())
	var log waitanyLog
	w.Launch(n+1, nil, func(c *Ctx, comm *Comm) {
		r := comm.Rank(c)
		if r > 0 {
			// The tag-2 message completes a receive outside the wait set:
			// its delivery wakes rank 0 to find nothing new done.
			c.Sleep(at[r-1])
			c.Send(comm, 0, 2, Virtual(64))
			c.Sleep(0.005)
			c.Send(comm, 0, 1, Virtual(64))
			return
		}
		reqs := make([]Request, n)
		side := make([]Request, n)
		for i := range reqs {
			reqs[i] = c.Irecv(comm, i+1, 1)
			side[i] = c.Irecv(comm, i+1, 2)
		}
		c.Sleep(0.025)
		for {
			i := waitany(c, reqs)
			if i < 0 {
				c.Waitall(side)
				return
			}
			log.idxs = append(log.idxs, i)
			log.times = append(log.times, c.Now())
		}
	})
	runWorld(t, w)
	log.stats = w.Kernel().Stats()
	return log
}

// fullScanWaitany is the reference Waitany: every test scans the whole
// wait set from index 0, consumed requests included.
func fullScanWaitany(c *Ctx, rs []Request) int {
	idx := -1
	scan := func() bool {
		for i, r := range rs {
			if r.Done() && !r.consumed() {
				idx = i
				return true
			}
		}
		return false
	}
	pending := false
	for _, r := range rs {
		pending = pending || !r.consumed()
	}
	if !pending {
		return -1
	}
	c.WaitUntil(sim.CondFunc(scan))
	rs[idx].s.consumed = true
	return idx
}

// TestWaitanyMatchesFullScan pins Waitany's cursor past the consumed
// prefix: the indices it returns, their times and the kernel's count of
// events, resumes and re-parks equal those of a full scan from index 0.
func TestWaitanyMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		got := runWaitany(t, seed, 24, (*Ctx).Waitany)
		want := runWaitany(t, seed, 24, fullScanWaitany)
		if len(got.idxs) != 24 {
			t.Fatalf("seed %d: Waitany returned %d indices, want 24", seed, len(got.idxs))
		}
		if got.stats.Reparks == 0 {
			t.Fatalf("seed %d: no wake re-parked", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Waitany differs from a full scan:\n%+v\nvs\n%+v", seed, got, want)
		}
	}
}
