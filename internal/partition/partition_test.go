package partition

import (
	"testing"
	"testing/quick"
)

func TestBlockDistBasics(t *testing.T) {
	d := NewBlockDist(10, 3) // 4, 3, 3
	wantLo := []int64{0, 4, 7}
	wantHi := []int64{4, 7, 10}
	for r := 0; r < 3; r++ {
		if d.Lo(r) != wantLo[r] || d.Hi(r) != wantHi[r] {
			t.Fatalf("part %d = [%d,%d), want [%d,%d)", r, d.Lo(r), d.Hi(r), wantLo[r], wantHi[r])
		}
	}
}

func TestBlockDistEvenSplit(t *testing.T) {
	d := NewBlockDist(20, 4)
	for r := 0; r < 4; r++ {
		if d.Hi(r)-d.Lo(r) != 5 {
			t.Fatalf("part %d owns %d, want 5", r, d.Hi(r)-d.Lo(r))
		}
	}
}

func TestBlockDistMorePartsThanElements(t *testing.T) {
	d := NewBlockDist(2, 5)
	total := int64(0)
	for r := 0; r < 5; r++ {
		total += d.Hi(r) - d.Lo(r)
		if d.Hi(r)-d.Lo(r) > 1 {
			t.Fatalf("part %d owns %d, want <= 1", r, d.Hi(r)-d.Lo(r))
		}
	}
	if total != 2 {
		t.Fatalf("total = %d, want 2", total)
	}
}

func TestOwnerConsistentWithRanges(t *testing.T) {
	for _, tc := range []struct {
		n int64
		p int
	}{{10, 3}, {7, 7}, {100, 8}, {5, 10}, {1, 1}, {4147, 160}} {
		d := NewBlockDist(tc.n, tc.p)
		for i := int64(0); i < tc.n; i++ {
			r := d.Owner(i)
			if i < d.Lo(r) || i >= d.Hi(r) {
				t.Fatalf("n=%d p=%d: Owner(%d) = %d but range is [%d,%d)",
					tc.n, tc.p, i, r, d.Lo(r), d.Hi(r))
			}
		}
	}
}

func TestPropertyBlockDistPartitions(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int64(nRaw)
		p := int(pRaw%64) + 1
		d := NewBlockDist(n, p)
		var total int64
		prevHi := int64(0)
		for r := 0; r < p; r++ {
			if d.Lo(r) != prevHi {
				return false // contiguous, no gaps
			}
			if d.Hi(r)-d.Lo(r) < 0 {
				return false
			}
			total += d.Hi(r) - d.Lo(r)
			prevHi = d.Hi(r)
			// Balanced: counts differ by at most 1.
			if d.Hi(r)-d.Lo(r) > n/int64(p)+1 {
				return false
			}
		}
		return total == n && prevHi == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanIdentityWhenSameCounts(t *testing.T) {
	p := NewPlan(100, 4, 4)
	for _, c := range p.Chunks {
		if c.Src != c.Dst {
			t.Fatalf("identity plan moved chunk %+v", c)
		}
	}
	if p.TotalMoved() != 0 {
		t.Fatalf("TotalMoved = %d, want 0", p.TotalMoved())
	}
}

// countMatrix sums p's chunks into its ns×nt matrix of element counts.
func countMatrix(p Plan) [][]int64 {
	m := make([][]int64, p.NS)
	for s := range m {
		m[s] = make([]int64, p.NT)
	}
	for _, c := range p.Chunks {
		m[c.Src][c.Dst] += c.Count()
	}
	return m
}

func TestPlanExpansion(t *testing.T) {
	// 10 elements from 2 to 5 parts: sources [0,5) and [5,10); targets get
	// 2 each.
	p := NewPlan(10, 2, 5)
	counts := countMatrix(p)
	want := [][]int64{
		{2, 2, 1, 0, 0},
		{0, 0, 1, 2, 2},
	}
	for s := range want {
		for d := range want[s] {
			if counts[s][d] != want[s][d] {
				t.Fatalf("counts[%d][%d] = %d, want %d", s, d, counts[s][d], want[s][d])
			}
		}
	}
}

func TestPlanShrink(t *testing.T) {
	p := NewPlan(10, 5, 2)
	counts := countMatrix(p)
	want := [][]int64{
		{2, 0},
		{2, 0},
		{1, 1},
		{0, 2},
		{0, 2},
	}
	for s := range want {
		for d := range want[s] {
			if counts[s][d] != want[s][d] {
				t.Fatalf("counts[%d][%d] = %d, want %d", s, d, counts[s][d], want[s][d])
			}
		}
	}
}

func TestSendRecvChunksOrdered(t *testing.T) {
	p := NewPlan(100, 3, 7)
	for s := 0; s < 3; s++ {
		chunks := p.SendChunks(s)
		for i := 1; i < len(chunks); i++ {
			if chunks[i].Lo < chunks[i-1].Hi {
				t.Fatalf("source %d chunks out of order: %+v", s, chunks)
			}
		}
	}
	for d := 0; d < 7; d++ {
		chunks := p.RecvChunks(d)
		var got int64
		dd := NewBlockDist(100, 7)
		for _, c := range chunks {
			got += c.Count()
		}
		if got != dd.Hi(d)-dd.Lo(d) {
			t.Fatalf("target %d receives %d elements, want %d", d, got, dd.Hi(d)-dd.Lo(d))
		}
	}
}

// Property: conservation — chunks exactly tile [0, n) with no overlap, for
// arbitrary (n, ns, nt).
func TestPropertyPlanConservation(t *testing.T) {
	f := func(nRaw uint16, nsRaw, ntRaw uint8) bool {
		n := int64(nRaw)
		ns := int(nsRaw%32) + 1
		nt := int(ntRaw%32) + 1
		p := NewPlan(n, ns, nt)
		// Collect and check disjoint cover per target.
		covered := int64(0)
		dd := NewBlockDist(n, nt)
		for d := 0; d < nt; d++ {
			var prev int64 = dd.Lo(d)
			for _, c := range p.RecvChunks(d) {
				if c.Lo != prev { // contiguous within target
					return false
				}
				prev = c.Hi
				covered += c.Count()
			}
			if prev != dd.Hi(d) {
				return false
			}
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	d := NewBlockDist(10, 2)
	for _, fn := range []func(){
		func() { d.Lo(2) },
		func() { d.Owner(10) },
		func() { d.Owner(-1) },
		func() { NewBlockDist(-1, 2) },
		func() { NewBlockDist(5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}
