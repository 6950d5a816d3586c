package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/rms"
)

// GenKind selects a synthetic arrival process.
type GenKind string

const (
	// GenPoisson draws memoryless arrivals at a constant rate.
	GenPoisson GenKind = "poisson"
	// GenBursty draws geometric bursts of near-simultaneous submissions
	// separated by long idle gaps — the heavy-traffic shape where
	// malleability pays most (idle cores between bursts, contention inside
	// them).
	GenBursty GenKind = "bursty"
	// GenDiurnal modulates a Poisson process with a sinusoidal day/night
	// intensity (three "days" per trace).
	GenDiurnal GenKind = "diurnal"
)

// GenKinds lists every synthetic generator.
var GenKinds = []GenKind{GenPoisson, GenBursty, GenDiurnal}

// GenSpec parameterizes one synthetic job trace. Generation is a pure
// function of the spec: the same spec yields the same jobs, byte for byte,
// at any parallelism and on any platform (math/rand's generator is frozen
// by the Go 1 compatibility promise).
type GenSpec struct {
	Kind GenKind
	Seed int64
	// Jobs is the trace length in submissions.
	Jobs int
	// Cores is the cluster capacity the load is scaled against.
	Cores int
	// Load is the offered load as a fraction of capacity: the arrival
	// window is sized so submitted work arrives at Load×Cores
	// core-seconds per second.
	Load float64
	// MalleableFrac is the fraction of jobs marked malleable. Changing
	// only this field keeps every arrival time and job size identical —
	// the malleability coin flips come from an independent stream — so
	// sweeps along this axis compare like with like.
	MalleableFrac float64
}

// String is the spec's campaign label (seed elided when 1, the default).
func (g GenSpec) String() string {
	s := fmt.Sprintf("%s/j%d/l%.2f/m%.2f", g.Kind, g.Jobs, g.Load, g.MalleableFrac)
	if g.Seed != 1 {
		s += fmt.Sprintf("/s%d", g.Seed)
	}
	return s
}

// Validate rejects specs that cannot generate a trace.
func (g GenSpec) Validate() error {
	switch g.Kind {
	case GenPoisson, GenBursty, GenDiurnal:
	default:
		return fmt.Errorf("workload: unknown generator %q (want poisson, bursty, or diurnal)", g.Kind)
	}
	if g.Jobs < 1 {
		return fmt.Errorf("workload: generator needs Jobs >= 1, got %d", g.Jobs)
	}
	if g.Cores < 1 {
		return fmt.Errorf("workload: generator needs Cores >= 1, got %d", g.Cores)
	}
	if math.IsNaN(g.Load) || math.IsInf(g.Load, 0) || g.Load <= 0 {
		return fmt.Errorf("workload: generator Load must be finite and > 0, got %v", g.Load)
	}
	if math.IsNaN(g.MalleableFrac) || g.MalleableFrac < 0 || g.MalleableFrac > 1 {
		return fmt.Errorf("workload: MalleableFrac %v outside [0, 1]", g.MalleableFrac)
	}
	return nil
}

// Job-size model shared by all generators: a job asks for a power-of-two-
// ish core count well below the full machine and runs a lognormal service
// time at that minimum allocation; malleable jobs may expand to 4x their
// minimum. DataBytes scale with the allocation (64 MiB per rank), the same
// convention the redistribution experiments use.
const (
	genMedianService = 40.0  // seconds at the minimum allocation
	genServiceSigma  = 0.8   // lognormal shape
	genMinService    = 5.0   // clamp: no sub-second confetti jobs
	genMaxService    = 600.0 // clamp: no trace-dominating monsters
	genExpandFactor  = 4     // malleable MaxProcs = Procs * this (capped)
	genBytesPerProc  = 64 << 20
)

// Generate produces the spec's job trace. Arrivals are sorted and jobs are
// numbered 0..Jobs-1 in arrival order.
func Generate(spec GenSpec) ([]rms.Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// Three independent deterministic streams: sizes, arrivals, and
	// malleability flags. Separate streams keep each axis stable when the
	// others change (e.g. the same arrivals at every MalleableFrac).
	sizeRng := rand.New(rand.NewSource(spec.Seed))
	arrRng := rand.New(rand.NewSource(spec.Seed ^ 0x1e3779b97f4a7c15))
	malRng := rand.New(rand.NewSource(spec.Seed ^ 0x5851f42d4c957f2d))

	// Sizes first, built in place; arrivals and malleability flags come
	// from their own streams once the total work sizes the window.
	jobs := make([]rms.Job, spec.Jobs)
	var totalWork float64
	// Log-uniform core ask in [1, Cores/4] (at least 1): several jobs
	// must fit side by side for scheduling to be interesting.
	hi := spec.Cores / 4
	if hi < 1 {
		hi = 1
	}
	logHi := math.Log(float64(hi))
	for i := range jobs {
		procs := int(math.Exp(sizeRng.Float64() * logHi))
		if procs < 1 {
			procs = 1
		}
		if procs > hi {
			procs = hi
		}
		service := genMedianService * math.Exp(sizeRng.NormFloat64()*genServiceSigma)
		if service < genMinService {
			service = genMinService
		}
		if service > genMaxService {
			service = genMaxService
		}
		j := &jobs[i]
		j.ID = i
		j.Work = float64(procs) * service
		j.Procs = procs
		totalWork += j.Work
	}

	// The arrival window delivers totalWork at Load×Cores core-seconds/s.
	window := totalWork / (spec.Load * float64(spec.Cores))
	arrivals := genArrivals(spec.Kind, arrRng, spec.Jobs, window)

	for i := range jobs {
		j := &jobs[i]
		j.Arrival = arrivals[i]
		j.MaxProcs = j.Procs
		if malRng.Float64() < spec.MalleableFrac {
			j.Malleable = true
			j.MaxProcs = min(j.Procs*genExpandFactor, spec.Cores)
			j.DataBytes = int64(j.Procs) * genBytesPerProc
		}
	}
	return jobs, nil
}

// genArrivals draws n sorted arrival instants spanning [0, window].
func genArrivals(kind GenKind, rng *rand.Rand, n int, window float64) []float64 {
	ts := make([]float64, n)
	switch kind {
	case GenPoisson:
		// Unit-rate exponential interarrivals, rescaled to the window.
		cum := 0.0
		for i := range ts {
			cum += rng.ExpFloat64()
			ts[i] = cum
		}
		rescale(ts, window)
	case GenBursty:
		// Geometric bursts (mean 8 jobs) of near-simultaneous submissions
		// separated by exponential gaps 50x the intra-burst spacing.
		// The burst length is 1 + a geometric draw (success probability
		// 1/meanBurst, support 0, 1, 2, ...) by inversion.
		const meanBurst = 8
		logQ := math.Log(1 - 1.0/meanBurst)
		cum := 0.0
		left := 0
		for i := range ts {
			if left == 0 {
				left = 1 + int(math.Floor(math.Log(1-rng.Float64())/logQ))
				cum += rng.ExpFloat64() * 50
			} else {
				cum += rng.ExpFloat64() * 0.02
			}
			left--
			ts[i] = cum
		}
		rescale(ts, window)
	case GenDiurnal:
		// Nonhomogeneous Poisson via time warping: uniform order statistics
		// on the cumulative intensity Λ, inverted by bisection. Intensity
		// λ(t) = 1 + A·sin(2πt/P) with three periods per window.
		const amp = 0.8
		period := window / 3
		lam := func(t float64) float64 {
			// Λ(t) = t + A·P/(2π)·(1 − cos(2πt/P)), monotone for A < 1.
			return t + amp*period/(2*math.Pi)*(1-math.Cos(2*math.Pi*t/period))
		}
		total := lam(window)
		for i := range ts {
			x := rng.Float64() * total
			lo, hi := 0.0, window
			for k := 0; k < 64; k++ {
				mid := (lo + hi) / 2
				if lam(mid) < x {
					lo = mid
				} else {
					hi = mid
				}
			}
			ts[i] = (lo + hi) / 2
		}
		sort.Float64s(ts)
	}
	return ts
}

// rescale maps monotone ts onto [0, window] anchored at the first arrival.
func rescale(ts []float64, window float64) {
	if len(ts) == 0 {
		return
	}
	lo, hi := ts[0], ts[len(ts)-1]
	span := hi - lo
	if span <= 0 {
		for i := range ts {
			ts[i] = 0
		}
		return
	}
	for i := range ts {
		ts[i] = (ts[i] - lo) / span * window
	}
}
