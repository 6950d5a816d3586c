// Package partition computes static block data distributions and the
// communication plans needed to move data between two such distributions —
// the planning half of the paper's data-redistribution stage (§3.1).
//
// For dense data the dimension alone determines who sends what to whom: the
// plan is the pairwise intersection of the source blocks with the target
// blocks. For sparse matrices in CSR form the row pointer additionally
// translates row ranges into non-zero counts (core's sparse items do), which
// is why the paper has each source announce sizes before values.
package partition

import (
	"fmt"
	"sort"
)

// BlockDist is the standard block distribution of n elements over p parts:
// the first n%p parts get ⌈n/p⌉ elements, the rest ⌊n/p⌋.
type BlockDist struct {
	N int64 // total elements
	P int   // parts
}

// NewBlockDist validates and returns a block distribution.
func NewBlockDist(n int64, p int) BlockDist {
	if n < 0 || p <= 0 {
		panic(fmt.Sprintf("partition: invalid distribution of %d elements over %d parts", n, p))
	}
	return BlockDist{N: n, P: p}
}

// Lo returns the first global index owned by part r.
func (d BlockDist) Lo(r int) int64 {
	d.check(r)
	q, rem := d.N/int64(d.P), d.N%int64(d.P)
	if int64(r) < rem {
		return int64(r) * (q + 1)
	}
	return rem*(q+1) + (int64(r)-rem)*q
}

// Hi returns one past the last global index owned by part r.
func (d BlockDist) Hi(r int) int64 {
	d.check(r)
	if r == d.P-1 {
		return d.N
	}
	return d.Lo(r + 1)
}

// Owner returns the part owning global index i.
func (d BlockDist) Owner(i int64) int {
	if i < 0 || i >= d.N {
		panic(fmt.Sprintf("partition: index %d outside [0,%d)", i, d.N))
	}
	q, rem := d.N/int64(d.P), d.N%int64(d.P)
	cut := rem * (q + 1)
	if i < cut {
		return int(i / (q + 1))
	}
	if q == 0 {
		return int(rem) // all remaining parts are empty; unreachable via bounds
	}
	return int(rem + (i-cut)/q)
}

func (d BlockDist) check(r int) {
	if r < 0 || r >= d.P {
		panic(fmt.Sprintf("partition: part %d outside [0,%d)", r, d.P))
	}
}

// Chunk is a contiguous range of global element indexes [Lo, Hi) moving
// from source part Src to target part Dst.
type Chunk struct {
	Src, Dst int
	Lo, Hi   int64
}

// Count returns the chunk's element count.
func (c Chunk) Count() int64 { return c.Hi - c.Lo }

// Plan is the full redistribution plan between a source and a target block
// distribution of the same element space.
type Plan struct {
	N      int64
	NS, NT int
	Chunks []Chunk // sorted by (Src, Lo)
}

// NewPlan computes the chunks moving n elements from ns source blocks to nt
// target blocks: the pairwise non-empty intersections of the two
// distributions. The plan is deterministic and sorted by source, then by
// global range.
func NewPlan(n int64, ns, nt int) Plan {
	src := NewBlockDist(n, ns)
	dst := NewBlockDist(n, nt)
	p := Plan{N: n, NS: ns, NT: nt}
	for s := 0; s < ns; s++ {
		sLo, sHi := src.Lo(s), src.Hi(s)
		if sLo == sHi {
			continue
		}
		// Walk targets overlapping [sLo, sHi).
		t := dst.Owner(sLo)
		for t < nt {
			tLo, tHi := dst.Lo(t), dst.Hi(t)
			lo, hi := maxI64(sLo, tLo), minI64(sHi, tHi)
			if lo < hi {
				p.Chunks = append(p.Chunks, Chunk{Src: s, Dst: t, Lo: lo, Hi: hi})
			}
			if tHi >= sHi {
				break
			}
			t++
		}
	}
	return p
}

// srcRange returns the half-open index range [i, j) of source part s's
// chunks. Chunks are sorted by (Src, Lo), so the range is contiguous and a
// binary search finds it in O(log chunks).
func (p Plan) srcRange(s int) (int, int) {
	i := sort.Search(len(p.Chunks), func(k int) bool { return p.Chunks[k].Src >= s })
	j := i
	for j < len(p.Chunks) && p.Chunks[j].Src == s {
		j++
	}
	return i, j
}

// SendChunks returns the chunks source part s must send, in ascending
// target order.
func (p Plan) SendChunks(s int) []Chunk {
	i, j := p.srcRange(s)
	if i == j {
		return nil
	}
	return append([]Chunk(nil), p.Chunks[i:j]...)
}

// RecvChunks returns the chunks target part t will receive, in ascending
// source order.
func (p Plan) RecvChunks(t int) []Chunk {
	var out []Chunk
	for _, c := range p.Chunks {
		if c.Dst == t {
			out = append(out, c)
		}
	}
	return out
}

// TotalMoved returns the number of elements crossing between distinct
// parts (Src != Dst).
func (p Plan) TotalMoved() int64 {
	var n int64
	for _, c := range p.Chunks {
		if c.Src != c.Dst {
			n += c.Count()
		}
	}
	return n
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
