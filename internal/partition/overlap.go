package partition

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

// VisitSendOverlaps calls fn for every chunk source part s sends when
// redistributing from src to dst, in ascending target order — the same
// chunks, in the same order, as NewPlan(src.N, src.P, dst.P).SendChunks(s),
// at O(own peers) cost and zero allocation.
func VisitSendOverlaps(src, dst BlockDist, s int, fn func(Chunk)) {
	sLo, sHi := src.Lo(s), src.Hi(s)
	if sLo >= sHi {
		return
	}
	for t := dst.Owner(sLo); t < dst.P; t++ {
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
// chunks, in the same order, as NewPlan(src.N, src.P, dst.P).RecvChunks(t),
// at O(own peers) cost and zero allocation.
func VisitRecvOverlaps(src, dst BlockDist, t int, fn func(Chunk)) {
	tLo, tHi := dst.Lo(t), dst.Hi(t)
	if tLo >= tHi {
		return
	}
	for s := src.Owner(tLo); s < src.P; s++ {
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
func SendOverlaps(src, dst BlockDist, s int) []Chunk {
	var out []Chunk
	VisitSendOverlaps(src, dst, s, func(c Chunk) { out = append(out, c) })
	return out
}

// RecvOverlaps returns target part t's chunks as a fresh slice; nil when t
// owns nothing. See VisitRecvOverlaps for the order contract.
func RecvOverlaps(src, dst BlockDist, t int) []Chunk {
	var out []Chunk
	VisitRecvOverlaps(src, dst, t, func(c Chunk) { out = append(out, c) })
	return out
}
