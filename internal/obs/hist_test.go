package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestHistBasics(t *testing.T) {
	h := NewHist()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("empty hist: count=%d q50=%g", h.Count(), h.Quantile(0.5))
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Min() != 1 || h.Max() != 5 {
		t.Fatalf("min/max = %g/%g, want 1/5", h.Min(), h.Max())
	}
	if got := h.Mean(); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean = %g, want 3", got)
	}
}

func TestHistZeroAndNegative(t *testing.T) {
	h := NewHist()
	h.Observe(0)
	h.Observe(-5) // clamped into the zero bucket
	h.Observe(math.NaN())
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("q50 = %g, want 0 (zero bucket is exact)", q)
	}
}

// TestHistQuantileErrorBound drives random samples across many decades
// through the histogram and asserts every quantile estimate is within the
// documented RelErrBound of the exact order statistic. The exact value
// uses the same rank convention as Hist.Quantile (target = ceil(q*n)), so
// both land in the same bucket and the bound reduces to the per-bucket
// midpoint error.
func TestHistQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := NewHist()
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// log-uniform over ~12 decades, the span real span durations and
		// message sizes occupy.
		v := math.Exp(rng.Float64()*28 - 14)
		h.Observe(v)
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		target := int(math.Ceil(q * float64(len(vals))))
		if target < 1 {
			target = 1
		}
		if target > len(vals) {
			target = len(vals)
		}
		exact := vals[target-1]
		got := h.Quantile(q)
		relErr := math.Abs(got-exact) / exact
		if relErr > RelErrBound {
			t.Errorf("q=%g: got %g exact %g relErr %g > bound %g", q, got, exact, relErr, RelErrBound)
		}
	}
}

func TestHistMerge(t *testing.T) {
	a, b, both := NewHist(), NewHist(), NewHist()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		v := math.Exp(rng.Float64()*10 - 5)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		both.Observe(v)
	}
	a.Merge(b)
	if a.Count() != both.Count() {
		t.Fatalf("merge count = %d, want %d", a.Count(), both.Count())
	}
	// Summation order differs between the merged and interleaved paths, so
	// the float sums agree only to rounding.
	if math.Abs(a.sum-both.sum) > 1e-9*both.sum {
		t.Fatalf("merge sum = %g, want %g", a.sum, both.sum)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("q=%g: merged %g != direct %g", q, a.Quantile(q), both.Quantile(q))
		}
	}
}

func TestHistSnapshotBuckets(t *testing.T) {
	h := NewHist()
	h.Observe(1.5)
	h.Observe(1.5)
	h.Observe(300)
	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("snapshot count = %d, want 3", snap.Count)
	}
	var total uint64
	for _, b := range snap.Buckets {
		if b.Count == 0 {
			t.Fatalf("snapshot contains empty bucket %+v", b)
		}
		if !(b.Lo <= 1.5 && 1.5 < b.Hi) && !(b.Lo <= 300 && 300 < b.Hi) {
			t.Fatalf("bucket [%g,%g) covers neither sample", b.Lo, b.Hi)
		}
		total += b.Count
	}
	if total != 3 {
		t.Fatalf("bucket counts sum to %d, want 3", total)
	}
}

// TestHistMemoryConstant pins the core bounded-memory claim at the
// histogram level: footprint does not change with the observation count.
func TestHistMemoryConstant(t *testing.T) {
	h := NewHist()
	before := h.memoryBytes()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		h.Observe(math.Exp(rng.Float64()*20 - 10))
	}
	if after := h.memoryBytes(); after != before {
		t.Fatalf("memoryBytes changed %d -> %d after 200k observations", before, after)
	}
}

func TestHistReset(t *testing.T) {
	h := NewHist()
	h.Observe(42)
	h.Reset()
	if h.Count() != 0 || h.sum != 0 || h.Quantile(1) != 0 {
		t.Fatalf("reset hist not empty: count=%d sum=%g", h.Count(), h.sum)
	}
	h.Observe(7)
	if h.Count() != 1 || h.Min() != 7 {
		t.Fatalf("hist unusable after reset: count=%d min=%g", h.Count(), h.Min())
	}
}
