package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
)

// streamSeeds are the seeds the stream-equality tests cover: small ones
// like the sweeps' rep+1, zero and negative ones (which math/rand folds
// into its seeding range) and the int64 extremes.
var streamSeeds = []int64{0, 1, 2, 5, -7, 1 << 40, math.MaxInt64, math.MinInt64}

// mixedDraws draws n values from r, cycling through the Rand methods the
// simulator and its callers use, and returns them as bit patterns. The
// methods consume different numbers of source outputs (NormFloat64 and
// Intn loop on rejection), so the replay-to-generator handover at the
// 608th output falls inside varying kinds of draw.
func mixedDraws(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 5 {
		case 0:
			out[i] = math.Float64bits(r.NormFloat64())
		case 1:
			out[i] = uint64(r.Int63())
		case 2:
			out[i] = r.Uint64()
		case 3:
			out[i] = math.Float64bits(r.Float64())
		case 4:
			out[i] = uint64(r.Intn(1 + i%1000))
		}
	}
	return out
}

// firstDiff returns the index of the first differing draw, or -1.
func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// TestReplaySourceMatchesMathRand: a Rand over the snapshot-replaying
// source draws exactly what a Rand over math/rand's own source does, over
// 10^6 mixed draws per seed.
func TestReplaySourceMatchesMathRand(t *testing.T) {
	const n = 1_000_000
	for _, seed := range streamSeeds {
		got := mixedDraws(rand.New(newReplaySource(seed)), n)
		want := mixedDraws(rand.New(rand.NewSource(seed)), n)
		if i := firstDiff(got, want); i >= 0 {
			t.Errorf("seed %d: draw %d is %#x, math/rand draws %#x", seed, i, got[i], want[i])
		}
	}
}

// TestReplaySourceRawOutputs compares the raw source outputs across the
// handover: the 607 replayed ones and the first generated ones.
func TestReplaySourceRawOutputs(t *testing.T) {
	for _, seed := range streamSeeds {
		got, want := newReplaySource(seed), rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 4*rngLen; i++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: output %d is %#x, math/rand's is %#x", seed, i, g, w)
			}
		}
	}
}

// TestReplaySourceReseed: reseeding through Rand.Seed, before and after
// the handover, restarts the stream as math/rand's source does.
func TestReplaySourceReseed(t *testing.T) {
	got := rand.New(newReplaySource(3))
	want := rand.New(rand.NewSource(3))
	for i, seed := range streamSeeds {
		// Alternate between reseeding inside the replayed outputs and
		// after the handover.
		pre := 100 + 1000*(i%2)
		a, b := mixedDraws(got, pre), mixedDraws(want, pre)
		if j := firstDiff(a, b); j >= 0 {
			t.Fatalf("before reseeding to %d: draw %d differs", seed, j)
		}
		got.Seed(seed)
		want.Seed(seed)
		a, b = mixedDraws(got, 10_000), mixedDraws(want, 10_000)
		if j := firstDiff(a, b); j >= 0 {
			t.Fatalf("after reseeding to %d: draw %d is %#x, math/rand draws %#x", seed, j, a[j], b[j])
		}
	}
}

// TestSnapshotCacheIsBounded: the cache stops growing at maxCached seeds,
// and a seed past the bound still draws math/rand's stream.
func TestSnapshotCacheIsBounded(t *testing.T) {
	for seed := int64(1000); seed < 1000+2*maxCached; seed++ {
		snapshotOf(seed)
	}
	snapshots.Lock()
	n := len(snapshots.m)
	snapshots.Unlock()
	if n > maxCached {
		t.Fatalf("cache holds %d snapshots, want at most %d", n, maxCached)
	}
	seed := int64(1000 + 3*maxCached)
	got := mixedDraws(rand.New(newReplaySource(seed)), 10_000)
	want := mixedDraws(rand.New(rand.NewSource(seed)), 10_000)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("uncached seed %d: draw %d differs", seed, i)
	}
}

// BenchmarkNew times building one machine with the default configuration
// on a fresh kernel, noise generator included.
func BenchmarkNew(b *testing.B) {
	cfg := Default(netmodel.Ethernet10G())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(sim.NewKernel(), cfg)
	}
}
