package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// deadlineMsg is one message of a seeded deadline-wait schedule. A root
// (parent < 0) is sent when its source starts; any other message is sent
// by the destination of its parent once that rank has handled the parent.
type deadlineMsg struct {
	src, dst, parent int
	size             int64
	compute          float64 // CPU work the destination spends handling it
}

// deadlinePlan is a seeded schedule: ranks that drive their receives
// through a series of deadline waits, most of which expire, and one rank
// crashed mid-schedule, whose messages never come.
type deadlinePlan struct {
	ranks     int
	msgs      []deadlineMsg
	deadlines []float64 // successive wait windows of every rank
	victim    int
	killAt    float64
}

func newDeadlinePlan(seed int64) deadlinePlan {
	rng := rand.New(rand.NewSource(seed))
	pl := deadlinePlan{ranks: 4, victim: rng.Intn(4), killAt: float64(rng.Intn(6000)) * 1e-6}
	for j := 0; j < 40; j++ {
		m := deadlineMsg{src: rng.Intn(pl.ranks), parent: -1}
		if j >= 6 {
			m.parent = rng.Intn(j)
			m.src = pl.msgs[m.parent].dst
		}
		m.dst = (m.src + 1 + rng.Intn(pl.ranks-1)) % pl.ranks
		// Eager and rendezvous sizes (the eager threshold is 64 KiB).
		m.size = int64(8 + rng.Intn(200<<10))
		if rng.Intn(3) == 0 {
			m.compute = float64(rng.Intn(50)) * 1e-6
		}
		pl.msgs = append(pl.msgs, m)
	}
	for i := 0; i < 12; i++ {
		pl.deadlines = append(pl.deadlines, float64(20+rng.Intn(1000))*1e-6)
	}
	return pl
}

// runDeadlinePlan runs pl with every rank's waits parking on its real
// readiness (real) or on one that always holds, which resumes the rank
// into step on every wake: the resume path. It returns the log, the
// kernel's counters and Run's error text.
func runDeadlinePlan(t *testing.T, pl deadlinePlan, real bool) ([]string, sim.Stats, string) {
	w := testWorld(t, 2, 2, DefaultOptions())
	k := w.Kernel()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%.9f ", k.Now())+fmt.Sprintf(format, args...))
	}
	comm := w.Launch(pl.ranks, func(r int) int { return r % 2 }, func(c *Ctx, comm *Comm) {
		me := comm.Rank(c)
		defer logf("rank %d ends", me)
		send := func(parent int) {
			for j, m := range pl.msgs {
				if m.src == me && m.parent == parent {
					c.Free(c.Isend(comm, m.dst, j, Virtual(m.size)))
				}
			}
		}
		var mine []int // the messages this rank receives, by index
		var reqs []Request
		for j, m := range pl.msgs {
			if m.dst == me {
				mine = append(mine, j)
				reqs = append(reqs, c.Irecv(comm, m.src, j))
			}
		}
		send(-1)
		left := len(reqs)
		step := func() bool {
			for i, r := range reqs {
				if r.IsNull() || !r.Done() {
					continue
				}
				j := mine[i]
				c.Free(r)
				reqs[i] = Request{}
				left--
				logf("rank %d handles message %d", me, j)
				c.Compute(pl.msgs[j].compute)
				send(j)
			}
			return left == 0
		}
		ready := sim.CondFunc(func() bool { return true })
		if real {
			ready = func() bool {
				for _, r := range reqs {
					if !r.IsNull() && r.Done() {
						return true
					}
				}
				return left == 0
			}
		}
		for _, d := range pl.deadlines {
			ok := c.WaitUntilDeadline(ready, step, c.Now()+d)
			logf("rank %d wait returns %v", me, ok)
			if ok {
				return
			}
		}
	})
	k.At(pl.killAt, func() {
		logf("kill rank %d", pl.victim)
		w.KillProcess(comm.Member(pl.victim).GID())
	})
	err := k.Run()
	var errText string
	if err != nil {
		errText = err.Error()
	}
	return log, k.Stats(), errText
}

// TestWaitUntilDeadlineMatchesResumePath: over seeded schedules of ranks
// that handle eager and rendezvous messages inside deadline-bounded steps
// (computing and sending as they go, with many windows expiring and one
// rank crashed, often mid-wait), parking on the steps' real readiness
// gives the same log, run result and event count as resuming every wake,
// the old path. The kernel turns that path's fruitless resumes into
// re-parks one for one.
func TestWaitUntilDeadlineMatchesResumePath(t *testing.T) {
	var reparks uint64
	met, expired := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		pl := newDeadlinePlan(seed)
		oldLog, oldStats, oldErr := runDeadlinePlan(t, pl, false)
		newLog, newStats, newErr := runDeadlinePlan(t, pl, true)
		if !reflect.DeepEqual(newLog, oldLog) {
			t.Fatalf("seed %d: readiness log\n%v\nresume-path log\n%v", seed, newLog, oldLog)
		}
		if newErr != oldErr {
			t.Fatalf("seed %d: readiness run ended with %q, the resume path with %q", seed, newErr, oldErr)
		}
		if newStats.Events != oldStats.Events {
			t.Errorf("seed %d: %d events fired with readiness, %d on the resume path", seed, newStats.Events, oldStats.Events)
		}
		if oldStats.Reparks != 0 {
			t.Errorf("seed %d: the resume path was re-parked %d times by the kernel", seed, oldStats.Reparks)
		}
		if got := newStats.Resumes + newStats.Reparks; got != oldStats.Resumes {
			t.Errorf("seed %d: readiness resumes %d + re-parks %d = %d, want the resume path's %d resumes",
				seed, newStats.Resumes, newStats.Reparks, got, oldStats.Resumes)
		}
		reparks += newStats.Reparks
		for _, line := range oldLog {
			switch {
			case strings.HasSuffix(line, "wait returns true"):
				met++
			case strings.HasSuffix(line, "wait returns false"):
				expired++
			}
		}
	}
	if reparks == 0 || met == 0 || expired == 0 {
		t.Fatalf("%d re-parks, %d waits met, %d expired: the schedules do not exercise all three", reparks, met, expired)
	}
}
