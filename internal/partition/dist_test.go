package partition

import (
	"testing"
	"testing/quick"
)

// keepOwnDist returns the keep-own remapping of n elements from ns block
// parts onto nt parts: the shrink or the expansion variant.
func keepOwnDist(n int64, ns, nt int) CutDist {
	if nt <= ns {
		return KeepOwnShrinkDist(n, ns, nt)
	}
	return KeepOwnExpandDist(n, ns, nt)
}

// The keep-own remappings are contiguous, complete partitions whose Owner
// agrees with their ranges, and every part that exists on both sides keeps
// the start of its old block.
func TestKeepOwnDistInvariants(t *testing.T) {
	f := func(nRaw uint16, nsRaw, ntRaw uint8) bool {
		n := int64(nRaw % 500)
		ns, nt := int(nsRaw%16)+1, int(ntRaw%16)+1
		d := keepOwnDist(n, ns, nt)
		if d.Elements() != n || d.NumParts() != nt {
			return false
		}
		var prev int64
		for r := 0; r < nt; r++ {
			if d.Lo(r) != prev || d.Hi(r) < d.Lo(r) {
				return false
			}
			prev = d.Hi(r)
		}
		if prev != n {
			return false
		}
		for i := int64(0); i < n; i++ {
			r := d.Owner(i)
			if i < d.Lo(r) || i >= d.Hi(r) {
				return false
			}
		}
		b := NewBlockDist(n, ns)
		for r := 0; r < min(ns, nt); r++ {
			if d.Lo(r) != b.Lo(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanBetweenKeepOwnAndBlock(t *testing.T) {
	src := KeepOwnShrinkDist(40, 7, 3)
	dst := NewBlockDist(40, 5)
	p := PlanBetween(src, dst)
	if p.NS != 3 || p.NT != 5 {
		t.Fatalf("plan dims %dx%d", p.NS, p.NT)
	}
	// Conservation: recv chunks tile each target block.
	for r := 0; r < 5; r++ {
		var got int64
		prev := dst.Lo(r)
		for _, ch := range p.RecvChunks(r) {
			if ch.Lo != prev {
				t.Fatalf("target %d gap at %d", r, ch.Lo)
			}
			prev = ch.Hi
			got += ch.Count()
		}
		if prev != dst.Hi(r) || got != dst.Hi(r)-dst.Lo(r) {
			t.Fatalf("target %d covered %d of %d", r, got, dst.Hi(r)-dst.Lo(r))
		}
	}
}

func TestPlanBetweenMatchesNewPlan(t *testing.T) {
	f := func(nRaw uint16, nsRaw, ntRaw uint8) bool {
		n := int64(nRaw%500) + 1
		ns := int(nsRaw%12) + 1
		nt := int(ntRaw%12) + 1
		a := NewPlan(n, ns, nt)
		b := PlanBetween(NewBlockDist(n, ns), NewBlockDist(n, nt))
		if len(a.Chunks) != len(b.Chunks) {
			return false
		}
		for i := range a.Chunks {
			if a.Chunks[i] != b.Chunks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCutDistPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { KeepOwnShrinkDist(10, 2, 3) },
		func() { KeepOwnExpandDist(10, 3, 2) },
		func() { KeepOwnShrinkDist(1, 1, 1).Lo(1) },
		func() { KeepOwnShrinkDist(1, 1, 1).Owner(5) },
		func() { PlanBetween(NewBlockDist(5, 2), NewBlockDist(6, 2)) },
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
