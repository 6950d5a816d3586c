package partition

import (
	"fmt"
	"sort"
)

// Dist abstracts a contiguous 1-D partition of [0, Elements()) into
// NumParts() parts. BlockDist (equal counts) and CutDist (explicit cut
// points, the §5 keep-own remappings) both satisfy it.
type Dist interface {
	Elements() int64
	NumParts() int
	Lo(r int) int64
	Hi(r int) int64
}

// Elements implements Dist.
func (d BlockDist) Elements() int64 { return d.N }

// NumParts implements Dist.
func (d BlockDist) NumParts() int { return d.P }

// CutDist partitions [0, N) at explicit cut points: part r owns
// [cuts[r], cuts[r+1]). KeepOwnShrinkDist and KeepOwnExpandDist build one.
type CutDist struct {
	cuts []int64 // len parts+1, monotone, cuts[0] = 0
}

// Elements implements Dist.
func (d CutDist) Elements() int64 { return d.cuts[len(d.cuts)-1] }

// NumParts implements Dist.
func (d CutDist) NumParts() int { return len(d.cuts) - 1 }

// Lo implements Dist.
func (d CutDist) Lo(r int) int64 {
	d.check(r)
	return d.cuts[r]
}

// Hi implements Dist.
func (d CutDist) Hi(r int) int64 {
	d.check(r)
	return d.cuts[r+1]
}

// Owner returns the part owning element i.
func (d CutDist) Owner(i int64) int {
	if i < 0 || i >= d.Elements() {
		panic(fmt.Sprintf("partition: index %d outside [0,%d)", i, d.Elements()))
	}
	// Last cut at or before i.
	r := sort.Search(d.NumParts(), func(p int) bool { return d.cuts[p+1] > i })
	return r
}

func (d CutDist) check(r int) {
	if r < 0 || r >= d.NumParts() {
		panic(fmt.Sprintf("partition: part %d outside [0,%d)", r, d.NumParts()))
	}
}

// PlanBetween computes the redistribution chunks between two arbitrary
// contiguous distributions of the same element space: the pairwise
// non-empty intersections, sorted by source then range. NewPlan is the
// block-to-block special case. The simulator plans per rank with the
// sparse overlap iterators; PlanBetween is kept as the dense reference
// the iterators' tests compare against.
func PlanBetween(src, dst Dist) Plan {
	if src.Elements() != dst.Elements() {
		panic(fmt.Sprintf("partition: distributions over %d vs %d elements",
			src.Elements(), dst.Elements()))
	}
	p := Plan{N: src.Elements(), NS: src.NumParts(), NT: dst.NumParts()}
	t := 0
	for s := 0; s < src.NumParts(); s++ {
		sLo, sHi := src.Lo(s), src.Hi(s)
		if sLo == sHi {
			continue
		}
		// Advance the target cursor to the first part overlapping sLo.
		for t > 0 && dst.Lo(t) > sLo {
			t--
		}
		for dst.Hi(t) <= sLo && t < dst.NumParts()-1 {
			t++
		}
		for q := t; q < dst.NumParts(); q++ {
			lo, hi := maxI64(sLo, dst.Lo(q)), minI64(sHi, dst.Hi(q))
			if lo < hi {
				p.Chunks = append(p.Chunks, Chunk{Src: s, Dst: q, Lo: lo, Hi: hi})
			}
			if dst.Hi(q) >= sHi {
				break
			}
		}
	}
	return p
}

// KeepOwnShrinkDist implements the paper's §5 future-work remapping for a
// shrink from ns to nt parts: surviving part t's new range starts exactly
// at its old block, so it keeps 100% of its data; the last survivor
// absorbs the tail owned by the terminated parts. The price is load
// imbalance — Imbalance quantifies it.
func KeepOwnShrinkDist(n int64, ns, nt int) CutDist {
	if nt > ns {
		panic(fmt.Sprintf("partition: KeepOwnShrinkDist with nt=%d > ns=%d", nt, ns))
	}
	b := NewBlockDist(n, ns)
	cuts := make([]int64, nt+1)
	for t := 0; t < nt; t++ {
		cuts[t] = b.Lo(t)
	}
	cuts[nt] = n
	return CutDist{cuts: cuts}
}

// KeepOwnExpandDist is the expansion dual: every persisting source keeps
// its whole block except the last, whose block the new parts split.
func KeepOwnExpandDist(n int64, ns, nt int) CutDist {
	if nt < ns {
		panic(fmt.Sprintf("partition: KeepOwnExpandDist with nt=%d < ns=%d", nt, ns))
	}
	b := NewBlockDist(n, ns)
	cuts := make([]int64, nt+1)
	for r := 0; r < ns; r++ {
		cuts[r] = b.Lo(r)
	}
	// Split the last source's block among itself and the newcomers.
	tail := n - b.Lo(ns-1)
	extra := int64(nt - ns + 1)
	for j := int64(0); j < extra; j++ {
		cuts[int64(ns-1)+j] = b.Lo(ns-1) + tail*j/extra
	}
	cuts[nt] = n
	return CutDist{cuts: cuts}
}

// Imbalance reports max part size over the balanced size — 1.0 means
// perfectly even; KeepOwn distributions trade this for zero moved bytes on
// survivors.
func Imbalance(d Dist) float64 {
	parts := d.NumParts()
	var maxC int64
	for r := 0; r < parts; r++ {
		if c := d.Hi(r) - d.Lo(r); c > maxC {
			maxC = c
		}
	}
	ideal := float64(d.Elements()) / float64(parts)
	if ideal == 0 {
		return 1
	}
	return float64(maxC) / ideal
}
