// Package harness drives the paper's evaluation: it sweeps the 42
// (NS, NT) pairs over the twelve malleability configurations on both
// networks, repeats each cell with distinct seeds, and regenerates every
// figure of §4 — reconfiguration times (Figures 2-3), α ratios
// (Figures 4-5), statistically selected best-method maps (Figures 6 and 9),
// and application times with speedups (Figures 7-8).
package harness

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/synthapp"
	"repro/internal/trace"
)

// PaperCounts are the process counts of §4.3.
var PaperCounts = []int{2, 10, 20, 40, 80, 120, 160}

// Pair is one (sources, targets) reconfiguration.
type Pair struct{ NS, NT int }

// AllPairs returns the paper's 42 ordered pairs (every NS != NT).
func AllPairs() []Pair {
	var out []Pair
	for _, ns := range PaperCounts {
		for _, nt := range PaperCounts {
			if ns != nt {
				out = append(out, Pair{NS: ns, NT: nt})
			}
		}
	}
	return out
}

// From160 returns the shrink series the paper plots (NS = 160).
func From160() []Pair {
	var out []Pair
	for _, nt := range PaperCounts {
		if nt != 160 {
			out = append(out, Pair{NS: 160, NT: nt})
		}
	}
	return out
}

// To160 returns the expansion series the paper plots (NT = 160).
func To160() []Pair {
	var out []Pair
	for _, ns := range PaperCounts {
		if ns != 160 {
			out = append(out, Pair{NS: ns, NT: 160})
		}
	}
	return out
}

// Setup fixes the calibrated machine and application for one experiment
// family.
type Setup struct {
	Net  netmodel.Params
	Reps int
	Cfg  *synthapp.Config

	// Workers bounds the sweep engine's parallelism: how many independent
	// (pair, config, rep) cells simulate concurrently. Zero means
	// DefaultWorkers (one per CPU); 1 forces the sequential engine. Every
	// cell runs on its own kernel with a seed derived from its repetition
	// index, so the measured results — and the exported CSV bytes — are
	// identical at any worker count (see DESIGN.md §11).
	Workers int

	// Obs, when non-nil, receives live campaign telemetry: every sweep,
	// fault-campaign, or chaos cell reports its wall time and outcome, and
	// sweep and fault cells additionally attach a streaming obs.Stream that
	// merges into the meter's campaign aggregate under the pool's ordered
	// completion frontier (so the merged snapshot is byte-identical at any
	// Workers count).
	Obs *Meter

	// Cluster and runtime calibration; see DESIGN.md §5.
	Cluster cluster.Config
	MPIOpts mpi.Options
}

// DefaultSetup returns the calibrated reproduction setup for the given
// interconnect. The calibration targets the paper's qualitative shape:
// Merge spawning saves >1 s at scale, pairwise inter-communicator
// collectives pay oversubscription convoy penalties, and iteration times
// put 10-80 overlapped iterations inside an Ethernet reconfiguration.
func DefaultSetup(net netmodel.Params) Setup {
	cl := cluster.Default(net)
	cl.SpawnBase = 30e-3
	cl.SpawnPerProc = 25e-3
	cl.NoiseSigma = 0.03

	opts := mpi.DefaultOptions()
	opts.SchedQuantum = 30e-3

	return Setup{
		Net:     net,
		Reps:    5,
		Cfg:     synthapp.CGConfig(0.006, 160),
		Cluster: cl,
		MPIOpts: opts,
	}
}

// NewWorld builds a fresh world for one run; rep seeds the noise stream.
func (s Setup) NewWorld(rep int) *mpi.World {
	cl := s.Cluster
	cl.Seed = int64(rep + 1)
	k := sim.NewKernel()
	return mpi.NewWorld(cluster.New(k, cl), s.MPIOpts)
}

// RunCell executes one (pair, config, rep) run. Kept as the one-cell entry
// point the root integration tests and per-figure benchmarks drive.
func (s Setup) RunCell(p Pair, mal core.Config, rep int) (synthapp.Result, error) {
	return s.runCell(p, mal, rep, nil, nil)
}

// RunCellSink executes one cell with a streaming telemetry sink attached.
// The sink reads only the virtual clock, so the result is identical to
// RunCell's.
func (s Setup) RunCellSink(p Pair, mal core.Config, rep int, sink trace.Sink) (synthapp.Result, error) {
	return s.runCell(p, mal, rep, nil, sink)
}

// runCell is the shared cell executor: a fresh seeded world, an optional
// full recorder, an optional streaming sink (the two compose via
// trace.Tee inside synthapp.Run). The world's recycled message state goes
// on to the next cell.
func (s Setup) runCell(p Pair, mal core.Config, rep int, rec *trace.Recorder, sink trace.Sink) (synthapp.Result, error) {
	w := s.NewWorld(rep)
	defer w.Release()
	return synthapp.Run(w, synthapp.RunParams{
		Cfg: s.Cfg, Malleability: mal, NS: p.NS, NT: p.NT,
		Recorder: rec, Sink: sink,
	})
}

// cellSink returns the stream as a non-nil trace.Sink, or nil — never a
// typed-nil interface, which would defeat the instrumentation nil checks.
func cellSink(stream *obs.Stream) trace.Sink {
	if stream == nil {
		return nil
	}
	return stream
}

// CellKey identifies one measured cell.
type CellKey struct {
	Pair   Pair
	Config core.Config
}

func (k CellKey) String() string {
	return fmt.Sprintf("%d->%d %s", k.Pair.NS, k.Pair.NT, k.Config)
}

// Measurements maps cells to their per-repetition results.
type Measurements map[CellKey][]synthapp.Result

// Sweep runs reps repetitions of every (pair, config) cell, fanning the
// independent cells across Workers cores. Cell seeds depend only on the
// repetition index and results are assembled in sweep order, so the
// Measurements — and any CSV serialized from them — are byte-identical to
// a sequential (Workers == 1) sweep. progress, when non-nil, receives one
// line per completed cell, in sweep order. On error the sweep cancels:
// in-flight cells finish, no new cells start, and the lowest-index failure
// is returned (the same error the sequential sweep reports).
func (s Setup) Sweep(pairs []Pair, configs []core.Config, progress func(string)) (Measurements, error) {
	reps := s.Reps
	if reps <= 0 || len(pairs) == 0 || len(configs) == 0 {
		return Measurements{}, nil
	}
	jobOf := func(i int) (Pair, core.Config, int) {
		cell, rep := i/reps, i%reps
		return pairs[cell/len(configs)], configs[cell%len(configs)], rep
	}
	n := len(pairs) * len(configs) * reps
	results := make([]synthapp.Result, n)
	m := make(Measurements, len(pairs)*len(configs))
	var (
		walls   []time.Duration
		streams []*obs.Stream
	)
	if s.Obs != nil {
		walls = make([]time.Duration, n)
		streams = make([]*obs.Stream, n)
	}
	err := ForEach(n, s.Workers, func(i int) error {
		p, cfg, rep := jobOf(i)
		var stream *obs.Stream
		var t0 time.Time
		if s.Obs != nil {
			stream = getStream()
			streams[i] = stream
			t0 = time.Now()
		}
		res, err := s.runCell(p, cfg, rep, nil, cellSink(stream))
		if s.Obs != nil {
			walls[i] = time.Since(t0)
		}
		if err != nil {
			return fmt.Errorf("harness: %s rep %d: %w", CellKey{Pair: p, Config: cfg}, rep, err)
		}
		results[i] = res
		return nil
	}, func(i int) {
		p, cfg, rep := jobOf(i)
		if s.Obs != nil {
			s.Obs.CellDone(CellStats{Wall: walls[i], Survived: true, MaxRung: -1, Stream: streams[i]})
			streams[i] = nil
		}
		if rep != reps-1 {
			return
		}
		// The ordered completion frontier guarantees every earlier
		// repetition of this cell has finished; assemble and report.
		key := CellKey{Pair: p, Config: cfg}
		m[key] = append([]synthapp.Result(nil), results[i+1-reps:i+1]...)
		if progress != nil {
			med := MedianReconfig(m[key])
			progress(fmt.Sprintf("%-28s reconfig=%.3fs total=%.2fs",
				key, med, MedianTotal(m[key])))
		}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// MedianReconfig returns the median reconfiguration time of a cell.
func MedianReconfig(rs []synthapp.Result) float64 {
	return medianBy(rs, synthapp.Result.ReconfigTime)
}

// MedianTotal returns the median total application time of a cell.
func MedianTotal(rs []synthapp.Result) float64 {
	return medianBy(rs, func(r synthapp.Result) float64 { return r.TotalTime })
}

func medianBy(rs []synthapp.Result, f func(synthapp.Result) float64) float64 {
	vals := make([]float64, len(rs))
	for i, r := range rs {
		vals[i] = f(r)
	}
	return stats.Median(vals)
}

// values extracts a metric across repetitions.
func values(rs []synthapp.Result, f func(synthapp.Result) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}
