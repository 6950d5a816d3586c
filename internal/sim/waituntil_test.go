package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// untilStep is one wait of a waiter in a seeded schedule, and what the
// waiter does once it holds.
type untilStep struct {
	sig, need int // wait until count[sig] >= need
	bump      int // then bump this signal and broadcast it (-1: none)
	pause     int // then 0: go on, 1: Yield, 2: Sleep(0.5)
}

// untilCall is an At callback of a seeded schedule.
type untilCall struct {
	at        float64
	sig       int
	broadcast bool // bump without a broadcast leaves the waiters parked
}

// untilPlan is a seeded schedule: waiters on shared signals, callbacks at
// integer times (so many fall at equal times), and one victim that waits
// on a condition that never holds until it is killed.
type untilPlan struct {
	signals int
	waiters [][]untilStep
	calls   []untilCall
	killAt  float64
}

func newUntilPlan(seed int64) untilPlan {
	rng := rand.New(rand.NewSource(seed))
	pl := untilPlan{signals: 3, killAt: float64(rng.Intn(6)) + 0.5}
	for i := 0; i < 6; i++ {
		var steps []untilStep
		need := 0
		for j := 0; j < 5; j++ {
			need += rng.Intn(3) // a zero step holds at once and never parks
			bump := -1
			if rng.Intn(3) == 0 {
				bump = rng.Intn(pl.signals)
			}
			steps = append(steps, untilStep{sig: rng.Intn(pl.signals), need: need, bump: bump, pause: rng.Intn(3)})
		}
		pl.waiters = append(pl.waiters, steps)
	}
	for n := 0; n < 60; n++ {
		pl.calls = append(pl.calls, untilCall{
			at:        float64(rng.Intn(10)),
			sig:       rng.Intn(pl.signals),
			broadcast: rng.Intn(5) != 0,
		})
	}
	return pl
}

// untilEntry is one line of a run's log: a callback or a post-wait resume.
type untilEntry struct {
	t     float64
	label string
}

// runUntilPlan runs pl with every wait either through WaitUntil (until) or
// through the explicit loop it replaces, and returns the log, the kernel's
// counters and Run's error text.
func runUntilPlan(pl untilPlan, until bool) ([]untilEntry, Stats, string) {
	k := NewKernel()
	sigs := make([]*Signal, pl.signals)
	for i := range sigs {
		sigs[i] = NewSignal(fmt.Sprintf("s%d", i))
	}
	count := make([]int, pl.signals)
	var log []untilEntry
	logf := func(format string, args ...any) {
		log = append(log, untilEntry{k.Now(), fmt.Sprintf(format, args...)})
	}
	wait := func(p *Proc, s *Signal, c Cond) {
		if until {
			p.WaitUntil(s, c, nil)
			return
		}
		for !c.Done() {
			p.Wait(s)
		}
	}
	for i, steps := range pl.waiters {
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j, st := range steps {
				wait(p, sigs[st.sig], CondFunc(func() bool { return count[st.sig] >= st.need }))
				logf("w%d step %d", i, j)
				k.At(k.Now(), func() { logf("echo w%d step %d", i, j) })
				if st.bump >= 0 {
					count[st.bump]++
					sigs[st.bump].Broadcast()
				}
				switch st.pause {
				case 1:
					p.Yield()
				case 2:
					p.Sleep(0.5)
				}
			}
		})
	}
	victim := k.Spawn("victim", func(p *Proc) {
		defer logf("victim unwound")
		wait(p, sigs[0], CondFunc(func() bool { return count[0] < 0 }))
		logf("victim resumed")
	})
	k.KillAt(pl.killAt, victim)
	for n, c := range pl.calls {
		k.At(c.at, func() {
			logf("call %d", n)
			count[c.sig]++
			if c.broadcast {
				sigs[c.sig].Broadcast()
			}
		})
	}
	err := k.Run()
	var errText string
	if err != nil {
		errText = err.Error()
	}
	return log, k.Stats(), errText
}

// TestWaitUntilMatchesWaitLoop: over seeded schedules of waiters on shared
// signals, broadcasts from callbacks and processes at equal times, and a
// waiter killed mid-wait, WaitUntil and the explicit Wait loop produce the
// same log of callbacks and post-wait resumes, the same run result and the
// same number of events. WaitUntil turns the loop's spurious resumes into
// kernel re-parks one for one.
func TestWaitUntilMatchesWaitLoop(t *testing.T) {
	var reparks uint64
	for seed := int64(1); seed <= 40; seed++ {
		pl := newUntilPlan(seed)
		loopLog, loopStats, loopErr := runUntilPlan(pl, false)
		untilLog, untilStats, untilErr := runUntilPlan(pl, true)
		if !reflect.DeepEqual(untilLog, loopLog) {
			t.Fatalf("seed %d: WaitUntil log\n%v\nWait loop log\n%v", seed, untilLog, loopLog)
		}
		if untilErr != loopErr {
			t.Fatalf("seed %d: WaitUntil run ended with %q, the Wait loop with %q", seed, untilErr, loopErr)
		}
		if untilStats.Events != loopStats.Events {
			t.Errorf("seed %d: %d events fired with WaitUntil, %d with the Wait loop", seed, untilStats.Events, loopStats.Events)
		}
		if loopStats.Reparks != 0 {
			t.Errorf("seed %d: the Wait loop was re-parked %d times by the kernel", seed, loopStats.Reparks)
		}
		if got := untilStats.Resumes + untilStats.Reparks; got != loopStats.Resumes {
			t.Errorf("seed %d: WaitUntil resumes %d + re-parks %d = %d, want the loop's %d resumes",
				seed, untilStats.Resumes, untilStats.Reparks, got, loopStats.Resumes)
		}
		if !strings.Contains(fmt.Sprint(untilLog), "victim unwound") {
			t.Errorf("seed %d: the victim was not killed mid-wait", seed)
		}
		reparks += untilStats.Reparks
	}
	if reparks == 0 {
		t.Fatal("no wake was re-parked: the schedules do not exercise the re-park")
	}
}

// TestWaitUntilConditionMustBePure: a condition that parks or schedules
// when a wake tests it in scheduler context panics out of Run, naming the
// process, instead of corrupting the schedule.
func TestWaitUntilConditionMustBePure(t *testing.T) {
	cases := []struct {
		name   string
		effect func(p *Proc)
		want   string
	}{
		{"parks", func(p *Proc) { p.Sleep(1) }, `park called by process "waiter" while it is not running`},
		{"schedules", func(p *Proc) { p.k.After(1, func() {}) }, `condition of process "waiter" scheduled an event`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			s := NewSignal("s")
			tests := 0
			waiter := k.Spawn("waiter", func(p *Proc) {
				p.WaitUntil(s, CondFunc(func() bool {
					if tests++; tests > 1 { // the first test runs in the process
						tc.effect(p)
					}
					return false
				}), nil)
			})
			k.At(1, s.Broadcast)
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			k.Kill(waiter) // unwind the parked coroutine
			if msg := fmt.Sprint(got); !strings.Contains(msg, tc.want) {
				t.Fatalf("Run panicked with %q, want it to mention %q", msg, tc.want)
			}
		})
	}
}
