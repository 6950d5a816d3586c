// Package obs is the streaming telemetry engine: bounded-memory online
// aggregation of the message-level event stream that internal/trace
// records in full. Where the Recorder's cost is O(events), everything in
// this package is O(1) in the event count — fixed histogram bucket
// arrays, monotone counters, and a fixed-capacity flight-recorder ring —
// so extreme-scale runs (and campaigns of thousands of them) can keep
// telemetry on without the observability layer itself becoming the
// memory bottleneck.
//
// The entry point is Stream, a trace.Sink that can replace or run
// alongside the full recorder (see trace.Tee). Snapshot freezes a
// Stream's state into an immutable, deterministically serialized value
// for live campaign telemetry, the `tracetool report` renderer, and the
// quantile and footprint checks of harness.TestStreamMatchesRecorder.
package obs

import (
	"math"
)

// Histogram bucket layout: HDR-style base-2 octaves split linearly into
// histSub sub-buckets. A positive value v = u * 2^(e-1) with u in [1, 2)
// lands in sub-bucket floor((u-1)*histSub) of octave e-1. Within one
// octave the bucket width is 2^(e-1)/histSub and every value is at least
// 2^(e-1), so estimating a sample by its bucket midpoint is off by at
// most width/2, i.e. a relative error of at most 1/(2*histSub) — the
// documented RelErrBound. Octaves outside [histMinExp, histMaxExp)
// clamp into the edge buckets (durations below ~1e-12 s or above ~1e12
// of anything are outside the simulator's dynamic range); exact zeros
// (instant events) get their own bucket with zero error.
const (
	histSub    = 16  // sub-buckets per octave
	histMinExp = -40 // smallest octave: 2^-40 ~ 9.1e-13
	histMaxExp = 40  // largest octave:  2^39  ~ 5.5e11

	// histBuckets is the fixed counter count: one zero bucket plus the
	// linearly-split octaves.
	histBuckets = 1 + (histMaxExp-histMinExp)*histSub
)

// RelErrBound is the guaranteed per-bucket relative error of Hist
// quantile estimates for in-range positive values: 1/(2*histSub).
const RelErrBound = 1.0 / (2 * histSub)

// Hist is an online log-bucketed histogram with a fixed memory footprint
// (histBuckets uint64 counters, ~10 KiB) and bounded relative error.
// Negative observations are clamped to zero. The zero value is not
// usable; call NewHist.
type Hist struct {
	counts []uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHist returns an empty histogram.
func NewHist() *Hist {
	return &Hist{counts: make([]uint64, histBuckets), min: math.Inf(1), max: math.Inf(-1)}
}

// bucketIndex maps a value to its bucket. Index 0 is the zero bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp <= histMinExp {
		return 1 // underflow clamps into the first octave's first bucket
	}
	if exp > histMaxExp {
		return histBuckets - 1
	}
	sub := int((2*frac - 1) * histSub) // [0, histSub)
	if sub >= histSub {
		sub = histSub - 1 // guard float rounding at the octave edge
	}
	return 1 + (exp-1-histMinExp)*histSub + sub
}

// bucketBounds returns the [lo, hi) value range of bucket i (0, 0 for the
// zero bucket).
func bucketBounds(i int) (lo, hi float64) {
	if i <= 0 {
		return 0, 0
	}
	i--
	exp, sub := i/histSub, i%histSub
	base := math.Ldexp(1, exp+histMinExp) // 2^(e-1)
	w := base / histSub
	return base + float64(sub)*w, base + float64(sub+1)*w
}

// Observe records one sample.
func (h *Hist) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.count }

// Min returns the exact smallest sample (0 when empty).
func (h *Hist) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest sample (0 when empty).
func (h *Hist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the exact sample mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0, 1]) as the midpoint of the
// bucket holding the rank-ceil(q*count) sample. For in-range positive
// values the estimate is within RelErrBound of the exact order
// statistic; the zero bucket is exact. Returns 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i == 0 {
				return 0
			}
			lo, hi := bucketBounds(i)
			return (lo + hi) / 2
		}
	}
	return h.max // unreachable: counts sum to count
}

// Merge adds other's samples into h. Buckets are aligned by construction,
// so merging loses no precision beyond the bucketing itself.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// Reset empties the histogram, keeping its bucket array.
func (h *Hist) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count, h.sum = 0, 0
	h.min, h.max = math.Inf(1), math.Inf(-1)
}

// memoryBytes is the histogram's fixed footprint for telemetry-size
// accounting.
func (h *Hist) memoryBytes() int64 {
	return int64(len(h.counts))*8 + 4*8
}

// HistBucket is one non-empty bucket in a serialized histogram.
type HistBucket struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count uint64  `json:"count"`
}

// HistSnapshot is the immutable serialized form of a Hist: exact count,
// sum, min, max, selected quantile estimates, and the non-empty buckets
// in value order (deterministic for identical sample multisets).
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Mean    float64      `json:"mean"`
	P50     float64      `json:"p50"`
	P90     float64      `json:"p90"`
	P99     float64      `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot freezes the histogram.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count, Sum: h.sum, Min: h.Min(), Max: h.Max(), Mean: h.Mean(),
		P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
	}
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, Count: c})
	}
	return s
}
