package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/partition"
)

// TestSparseEnumerationMatchesDensePlan is the core-side half of the
// sparse-vs-dense equivalence property: the per-rank overlap walks used by
// the transfer paths (sendChunksFor/recvChunksFor) must reassemble, rank by
// rank, into exactly the dense global plan — for dense and sparse items
// alike.
func TestSparseEnumerationMatchesDensePlan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rowPtr := make([]int64, 1001)
	for i := range rowPtr[1:] {
		rowPtr[i+1] = rowPtr[i] + int64(rng.Intn(30))
	}
	items := []Item{
		NewDenseVirtual("d", 100000, 8, true),
		NewSparseVirtual("s", rowPtr, 12, 4, true),
	}
	geoms := [][2]int{{1, 1}, {1, 48}, {48, 1}, {7, 13}, {160, 96}, {64, 64}, {40, 3}}
	for iter := 0; iter < 40; iter++ {
		geoms = append(geoms, [2]int{1 + rng.Intn(64), 1 + rng.Intn(64)})
	}
	for _, it := range items {
		for _, g := range geoms {
			ns, nt := g[0], g[1]
			dense := partition.NewPlan(it.Elements(), ns, nt)
			var bySend []partition.Chunk
			for s := 0; s < ns; s++ {
				bySend = append(bySend, sendChunksFor(it, ns, nt, s)...)
			}
			if !reflect.DeepEqual(bySend, dense.Chunks) {
				t.Fatalf("%s %dx%d: send enumeration disagrees with dense plan", it.Name(), ns, nt)
			}
			var byRecv []partition.Chunk
			for d := 0; d < nt; d++ {
				byRecv = append(byRecv, recvChunksFor(it, ns, nt, d)...)
			}
			sort.SliceStable(byRecv, func(a, b int) bool {
				if byRecv[a].Src != byRecv[b].Src {
					return byRecv[a].Src < byRecv[b].Src
				}
				return byRecv[a].Lo < byRecv[b].Lo
			})
			if !reflect.DeepEqual(byRecv, dense.Chunks) {
				t.Fatalf("%s %dx%d: recv enumeration disagrees with dense plan", it.Name(), ns, nt)
			}
		}
	}
}
