package partition

import "sort"

// This file holds the sparse interval-overlap iterators: per-rank chunk and
// peer enumeration that touches only the O(peers) parts a rank's block
// actually intersects, never the full NS×NT pair space. At 10k–100k ranks
// the dense plan walk (build all chunks, then filter per rank) costs
// O(NS+NT) per rank and O((NS+NT)²) per pass aggregate; the iterators here
// cost O(own peers) per rank, which for block distributions is
// O(max(NS,NT)/min(NS,NT)) — a constant for proportional reconfigurations.
//
// The enumeration order is a contract: VisitSendOverlaps yields exactly
// Plan.SendChunks(s) (ascending target, ascending range) and
// VisitRecvOverlaps yields exactly Plan.RecvChunks(t) (ascending source,
// ascending range). overlap_test.go proves the equivalence against
// brute-force pair intersection for adversarial geometries.

// locator is the optional fast path for owner lookup. BlockDist resolves
// owners in O(1) arithmetic and CutDist in O(log parts); any Dist
// without it falls back to a binary search over part boundaries.
type locator interface {
	Owner(i int64) int
}

// ownerOf returns the part of d owning global index i.
func ownerOf(d Dist, i int64) int {
	if l, ok := d.(locator); ok {
		return l.Owner(i)
	}
	// Parts are contiguous, so Hi is monotone: the owner is the first part
	// whose Hi exceeds i. Empty parts (Lo==Hi) are never returned.
	return sort.Search(d.NumParts(), func(r int) bool { return d.Hi(r) > i })
}

// VisitSendOverlaps calls fn for every chunk source part s sends when
// redistributing from src to dst, in ascending target order — the same
// chunks, in the same order, as PlanBetween(src, dst).SendChunks(s), at
// O(own peers) cost and zero allocation.
func VisitSendOverlaps(src, dst Dist, s int, fn func(Chunk)) {
	sLo, sHi := src.Lo(s), src.Hi(s)
	if sLo >= sHi {
		return
	}
	for t, nt := ownerOf(dst, sLo), dst.NumParts(); t < nt; t++ {
		tLo, tHi := dst.Lo(t), dst.Hi(t)
		if lo, hi := maxI64(sLo, tLo), minI64(sHi, tHi); lo < hi {
			fn(Chunk{Src: s, Dst: t, Lo: lo, Hi: hi})
		}
		if tHi >= sHi {
			return
		}
	}
}

// VisitRecvOverlaps calls fn for every chunk target part t receives when
// redistributing from src to dst, in ascending source order — the same
// chunks, in the same order, as PlanBetween(src, dst).RecvChunks(t), at
// O(own peers) cost and zero allocation.
func VisitRecvOverlaps(src, dst Dist, t int, fn func(Chunk)) {
	tLo, tHi := dst.Lo(t), dst.Hi(t)
	if tLo >= tHi {
		return
	}
	for s, ns := ownerOf(src, tLo), src.NumParts(); s < ns; s++ {
		sLo, sHi := src.Lo(s), src.Hi(s)
		if lo, hi := maxI64(sLo, tLo), minI64(sHi, tHi); lo < hi {
			fn(Chunk{Src: s, Dst: t, Lo: lo, Hi: hi})
		}
		if sHi >= tHi {
			return
		}
	}
}

// SendOverlaps returns source part s's chunks as a fresh slice; nil when s
// owns nothing. See VisitSendOverlaps for the order contract.
func SendOverlaps(src, dst Dist, s int) []Chunk {
	var out []Chunk
	VisitSendOverlaps(src, dst, s, func(c Chunk) { out = append(out, c) })
	return out
}

// RecvOverlaps returns target part t's chunks as a fresh slice; nil when t
// owns nothing. See VisitRecvOverlaps for the order contract.
func RecvOverlaps(src, dst Dist, t int) []Chunk {
	var out []Chunk
	VisitRecvOverlaps(src, dst, t, func(c Chunk) { out = append(out, c) })
	return out
}
