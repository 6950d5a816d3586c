package partition

import (
	"math/rand"
	"reflect"
	"testing"
)

// bruteOverlaps is the quadratic reference: intersect every (s, t) pair of
// ranges directly, with no cursor or owner math shared with the code under
// test.
func bruteOverlaps(src, dst BlockDist) []Chunk {
	var out []Chunk
	for s := 0; s < src.P; s++ {
		for t := 0; t < dst.P; t++ {
			lo := maxI64(src.Lo(s), dst.Lo(t))
			hi := minI64(src.Hi(s), dst.Hi(t))
			if lo < hi {
				out = append(out, Chunk{Src: s, Dst: t, Lo: lo, Hi: hi})
			}
		}
	}
	return out
}

func filterSrc(chunks []Chunk, s int) []Chunk {
	var out []Chunk
	for _, c := range chunks {
		if c.Src == s {
			out = append(out, c)
		}
	}
	return out
}

func filterDst(chunks []Chunk, t int) []Chunk {
	var out []Chunk
	for _, c := range chunks {
		if c.Dst == t {
			out = append(out, c)
		}
	}
	return out
}

// checkOverlapEquivalence asserts that the sparse iterators reproduce the
// brute-force pair intersection and the dense plan per rank, in order.
func checkOverlapEquivalence(t *testing.T, src, dst BlockDist) {
	t.Helper()
	brute := bruteOverlaps(src, dst)
	plan := NewPlan(src.N, src.P, dst.P)
	if !reflect.DeepEqual(plan.Chunks, brute) {
		t.Fatalf("NewPlan disagrees with brute force: %v vs %v", plan.Chunks, brute)
	}
	for s := 0; s < src.P; s++ {
		want := filterSrc(brute, s)
		if got := SendOverlaps(src, dst, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("SendOverlaps(s=%d) = %v, want %v", s, got, want)
		}
		if got, want := SendOverlaps(src, dst, s), plan.SendChunks(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("SendOverlaps(s=%d) = %v, dense SendChunks = %v", s, got, want)
		}
	}
	for d := 0; d < dst.P; d++ {
		want := filterDst(brute, d)
		if got := RecvOverlaps(src, dst, d); !reflect.DeepEqual(got, want) {
			t.Fatalf("RecvOverlaps(t=%d) = %v, want %v", d, got, want)
		}
		if got, want := RecvOverlaps(src, dst, d), plan.RecvChunks(d); !reflect.DeepEqual(got, want) {
			t.Fatalf("RecvOverlaps(t=%d) = %v, dense RecvChunks = %v", d, got, want)
		}
	}
}

// TestOverlapsMatchBruteForceAdversarial covers the geometries most likely
// to break cursor or owner arithmetic: coprime part counts, 1×N and N×1
// fan-out, huge skew in either direction, parts outnumbering elements
// (empty parts), and the degenerate empty space.
func TestOverlapsMatchBruteForceAdversarial(t *testing.T) {
	cases := []struct {
		n      int64
		ns, nt int
	}{
		{1, 1, 1},
		{1000, 1, 64},
		{1000, 64, 1},
		{1009, 7, 13},     // coprime counts, prime elements
		{997, 160, 96},    // paper-scale shape with prime elements
		{1 << 20, 3, 997}, // huge skew, coprime
		{1 << 20, 997, 3},
		{100000, 2, 4096}, // extreme fan-out
		{100000, 4096, 2},
		{10, 7, 64},  // most target parts empty
		{10, 64, 7},  // most source parts empty
		{5, 64, 64},  // both sides mostly empty
		{0, 4, 8},    // empty element space
		{63, 64, 63}, // off-by-one pressure
	}
	for _, c := range cases {
		src := NewBlockDist(c.n, c.ns)
		dst := NewBlockDist(c.n, c.nt)
		checkOverlapEquivalence(t, src, dst)
	}
}

func TestOverlapsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for iter := 0; iter < 300; iter++ {
		n := int64(rng.Intn(2000))
		ns := 1 + rng.Intn(40)
		nt := 1 + rng.Intn(40)
		checkOverlapEquivalence(t, NewBlockDist(n, ns), NewBlockDist(n, nt))
	}
}

// TestOverlapPeerCountIsSparse pins the asymptotic claim: a middle rank's
// peer count is ~⌈nt/ns⌉+1, not nt. Block targets are disjoint, so each
// chunk goes to a distinct peer.
func TestOverlapPeerCountIsSparse(t *testing.T) {
	src := NewBlockDist(1<<30, 100)
	dst := NewBlockDist(1<<30, 100000)
	for _, s := range []int{0, 1, 50, 99} {
		peers := SendOverlaps(src, dst, s)
		if len(peers) > 100000/100+2 {
			t.Fatalf("rank %d has %d peers, want O(nt/ns)=~1000", s, len(peers))
		}
		if len(peers) < 100000/100-2 {
			t.Fatalf("rank %d has %d peers, expected ~1000", s, len(peers))
		}
	}
}
