package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refHeap is a plain binary heap over (at, seq), kept as the ordering
// oracle for the kernel's heap and now lane.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// popLive pops the next event that fires, as Run does: cancelled lane
// events are recycled unseen, and the clock moves to the popped event. The
// caller recycles the returned event.
func popLive(k *Kernel) *event {
	for {
		e := k.pop()
		if e == nil || e.index != canceledLane {
			if e != nil {
				k.now = e.at
			}
			return e
		}
		k.recycle(e)
	}
}

// TestQueueMatchesHeapEventForEvent drives the kernel's queue and the
// reference heap through the same seeded schedule — bursts at the current
// instant (the now lane), jittered and long-tail timers, cancels of pending
// heap and lane events, and cancels through stale handles whose event was
// recycled and may hold a later schedule — and asserts the two agree on
// every pop and on every Cancel's return value. The heap must also hold no
// cancelled event: cancel removes it at once.
func TestQueueMatchesHeapEventForEvent(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	k := NewKernel()
	var h refHeap
	type handle struct {
		t   Timer
		seq uint64
	}
	var handles []handle
	gone := map[uint64]bool{} // fired or cancelled, by seq
	live := 0                 // pending, not cancelled
	push := func(at float64) {
		tm := k.At(at, func() {})
		seq := tm.ev.seq
		handles = append(handles, handle{tm, seq})
		heap.Push(&h, &event{at: at, seq: seq})
		live++
	}
	pops, cancels, advances := 0, 0, 0
	pop := func() {
		var want *event
		for h.Len() > 0 {
			want = heap.Pop(&h).(*event)
			if !gone[want.seq] {
				break
			}
			want = nil
		}
		prev := k.now
		got := popLive(k)
		if got != nil && got.at > prev {
			advances++
		}
		if (got == nil) != (want == nil) || got != nil && (got.at != want.at || got.seq != want.seq) {
			t.Fatalf("pop %d: kernel gave %v, heap gave %v", pops, desc(got), desc(want))
		}
		if got != nil {
			gone[got.seq] = true
			live--
			k.recycle(got)
		}
		pops++
	}
	for step := 0; step < 200000; step++ {
		// Alternate phases where the queue grows and where it drains.
		grow := 0.42
		if step/5000%2 == 1 {
			grow = 0.30
		}
		switch r := rng.Float64(); {
		case live == 0 || r < grow:
			at := k.now
			switch rng.Intn(6) {
			case 0: // a burst at the current instant
				for n := rng.Intn(4); n >= 0; n-- {
					push(at)
				}
				continue
			case 1:
				at += rng.Float64() * 1e-6 // microsecond jitter
			case 2:
				at += rng.Float64() // mid-range
			case 3:
				at += rng.Float64() * 1e4 // long-tail timer
			case 4:
				at += float64(rng.Intn(8)) * 0.125 // exact repeated times
			}
			push(at)
		case r < grow+0.15:
			// Cancel a recent handle (often a lane event) or any handle
			// ever issued (often stale).
			var hd handle
			if rng.Intn(2) == 0 {
				hd = handles[len(handles)-1-rng.Intn(min(8, len(handles)))]
			} else {
				hd = handles[rng.Intn(len(handles))]
			}
			want := !gone[hd.seq]
			if got := hd.t.Cancel(); got != want {
				t.Fatalf("cancel %d of seq %d: kernel says pending=%t, reference %t", cancels, hd.seq, got, want)
			}
			if want {
				gone[hd.seq] = true
				live--
			}
			cancels++
		default:
			pop()
		}
		if step%64 != 0 {
			continue
		}
		lane := 0
		for _, e := range k.lane[k.laneHead:] {
			if e.index == inLane {
				lane++
			}
		}
		if len(k.heap)+lane != live {
			t.Fatalf("step %d: %d heap + %d lane events pending, want %d", step, len(k.heap), lane, live)
		}
	}
	for live > 0 {
		pop()
	}
	if e := popLive(k); e != nil {
		t.Fatalf("queue not drained: %v left", desc(e))
	}
	t.Logf("%d pops, %d clock advances, %d cancels", pops, advances, cancels)
}

func desc(e *event) string {
	if e == nil {
		return "nothing"
	}
	return fmt.Sprintf("(at=%v seq=%d)", e.at, e.seq)
}

// TestFreelistCappedAfterSpike is the freelist-cap satellite: a burst of
// events far beyond maxFreeEvents must not stay pinned on the freelist
// after it drains.
func TestFreelistCappedAfterSpike(t *testing.T) {
	k := NewKernel()
	const spike = 5 * maxFreeEvents
	fired := 0
	for i := 0; i < spike; i++ {
		k.After(float64(i)*1e-3, func() { fired++ })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != spike {
		t.Fatalf("fired %d of %d events", fired, spike)
	}
	if len(k.free) > maxFreeEvents {
		t.Fatalf("freelist holds %d events after the spike, cap is %d", len(k.free), maxFreeEvents)
	}
	if cap(k.free) > 2*maxFreeEvents {
		t.Fatalf("freelist capacity %d grew past the cap", cap(k.free))
	}
}

// BenchmarkTimerRearm times the cancel-and-re-arm pattern of ps and
// netmodel with n timers pending: each operation cancels one pending timer
// and re-arms it (Cancel + At), then pops and fires the earliest event,
// which re-arms its own slot so n stay pending.
func BenchmarkTimerRearm(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			k := NewKernel()
			rng := rand.New(rand.NewSource(1))
			timers := make([]Timer, n)
			fires := make([]func(), n)
			for i := range timers {
				i := i
				fires[i] = func() { timers[i] = k.After(rng.Float64(), fires[i]) }
				timers[i] = k.After(rng.Float64(), fires[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := rng.Intn(n)
				timers[j].Cancel()
				timers[j] = k.After(rng.Float64(), fires[j])
				e := popLive(k)
				h := e.h
				k.recycle(e)
				h.Fire()
			}
		})
	}
}
