package sim

// The kernel's pending events live in two places. Events due at exactly
// the current instant go to the now lane, a FIFO: they are stamped in
// increasing seq order while the clock stands still, so the lane is
// already sorted. Every other event goes to an indexed binary min-heap
// over (at, seq). Any event in the heap at the current instant was
// scheduled before the clock reached it, so its seq is below every lane
// event's; pop still compares the heap top with the lane head by (at, seq),
// and the pop order is exactly the (at, seq) total order. The lane drains
// before the clock advances, since its events are the earliest possible.

// Event states kept in event.index besides a heap position (>= 0).
const (
	unqueued     = -1 // popped, removed, or never queued
	inLane       = -2 // pending in the now lane
	canceledLane = -3 // cancelled in the now lane; popped dead
)

// before reports whether a pops ahead of b.
func before(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push queues e: into the now lane when it is due now, else into the heap.
func (k *Kernel) push(e *event) {
	if e.at == k.now {
		e.index = inLane
		if k.laneHead > 0 && len(k.lane) == cap(k.lane) && k.laneHead >= len(k.lane)/2 {
			// Reuse the consumed prefix rather than grow: an instant whose
			// events keep scheduling more at the same instant never empties
			// the lane.
			n := copy(k.lane, k.lane[k.laneHead:])
			clear(k.lane[n:])
			k.lane, k.laneHead = k.lane[:n], 0
		}
		k.lane = append(k.lane, e)
		return
	}
	e.index = int32(len(k.heap))
	k.heap = append(k.heap, e)
	k.up(len(k.heap) - 1)
}

// pop removes and returns the earliest pending event by (at, seq),
// cancelled lane events included, or nil when none is pending.
func (k *Kernel) pop() *event {
	if k.laneHead < len(k.lane) {
		e := k.lane[k.laneHead]
		if len(k.heap) == 0 || before(e, k.heap[0]) {
			k.lane[k.laneHead] = nil
			k.laneHead++
			if k.laneHead == len(k.lane) {
				k.lane, k.laneHead = k.lane[:0], 0
			}
			return e
		}
	} else if len(k.heap) == 0 {
		return nil
	}
	e := k.heap[0]
	k.removeAt(0)
	return e
}

// removeAt deletes the heap entry at position i.
func (k *Kernel) removeAt(i int) {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap[n] = nil
	k.heap = k.heap[:n]
	if i < n {
		k.heap[i] = last
		if !k.down(i) {
			k.up(i)
		}
	}
}

// up sifts the entry at i toward the root.
func (k *Kernel) up(i int) {
	h := k.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !before(e, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	h[i] = e
	e.index = int32(i)
}

// down sifts the entry at i toward the leaves and reports whether it moved.
func (k *Kernel) down(i int) bool {
	h := k.heap
	n := len(h)
	e := h[i]
	i0 := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], e) {
			break
		}
		h[i] = h[c]
		h[i].index = int32(i)
		i = c
	}
	h[i] = e
	e.index = int32(i)
	return i > i0
}
