package cluster

import (
	"math/rand"
	"sync"
)

// The noise stream is math/rand's, seeded per world. Seeding a
// math/rand source runs a 607-word seeding loop that costs more than the
// rest of a world's construction, although a sweep draws its worlds'
// seeds from a handful of values. So each world replays a cached
// snapshot of its seed's stream instead, and gets the same bits.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word vector: each draw steps tap and feed down by one (mod 607),
// adds vec[tap] into vec[feed] and returns the sum. Draw k (counting from
// 1) writes index (334-k) mod 607, so the first 607 draws write every slot
// exactly once, leave there the value they return, and bring tap and feed
// back to where they started. The vector after 607 draws therefore holds
// every one of the first 607 outputs: a source that starts from it can
// replay draw k by reading slot (334-k) mod 607 unchanged, and from draw
// 608 on continue with math/rand's own step.
const (
	rngLen    = 607
	rngTap    = 273
	rngFeed   = rngLen - rngTap // feed's start index; tap starts at 0
	rngMask   = 1<<63 - 1
	maxCached = 64 // seeds whose snapshots the cache keeps
)

// snapshot is the state of math/rand's source for one seed after its
// first 607 draws.
type snapshot [rngLen]int64

// newSnapshot draws the first 607 outputs of math/rand's source for seed
// and places each in the slot that draw wrote.
func newSnapshot(seed int64) *snapshot {
	src := rand.NewSource(seed).(rand.Source64)
	s := new(snapshot)
	for k := 1; k <= rngLen; k++ {
		s[(rngFeed-k+rngLen)%rngLen] = int64(src.Uint64())
	}
	return s
}

// snapshots caches snapshots by seed for every world in the process, so
// sweep workers share them. It keeps the first maxCached seeds it sees;
// a later seed builds its snapshot on each use.
var snapshots struct {
	sync.Mutex
	m map[int64]*snapshot
}

// snapshotOf returns seed's snapshot, building it on a cache miss. A
// snapshot is never written once built.
func snapshotOf(seed int64) *snapshot {
	snapshots.Lock()
	s := snapshots.m[seed]
	snapshots.Unlock()
	if s != nil {
		return s
	}
	s = newSnapshot(seed) // outside the lock: other seeds need not wait
	snapshots.Lock()
	defer snapshots.Unlock()
	if old := snapshots.m[seed]; old != nil {
		return old
	}
	if len(snapshots.m) < maxCached {
		if snapshots.m == nil {
			snapshots.m = make(map[int64]*snapshot)
		}
		snapshots.m[seed] = s
	}
	return s
}

// replaySource is a rand.Source64 whose stream equals that of
// rand.NewSource for the same seed, bit for bit. Its first 607 draws read
// its seed's shared snapshot back; the last of them copies the snapshot,
// and later draws run math/rand's step on that copy. A world that draws
// fewer than 607 values never copies it.
type replaySource struct {
	tap, feed int
	replay    int       // draws left before vec is the source's own
	vec       *snapshot // the seed's shared snapshot while replaying, then a copy
}

func newReplaySource(seed int64) *replaySource {
	s := new(replaySource)
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed's first draw.
func (s *replaySource) Seed(seed int64) {
	s.tap, s.feed, s.replay = 0, rngFeed, rngLen
	s.vec = snapshotOf(seed)
}

func (s *replaySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

func (s *replaySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.replay > 0 {
		x := s.vec[s.feed] // never write the shared snapshot
		s.replay--
		if s.replay == 0 {
			v := *s.vec
			s.vec = &v
		}
		return uint64(x)
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}
