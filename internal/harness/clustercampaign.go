package harness

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/rms"
	"repro/internal/workload"
)

// The cluster-workload campaign. One cell is a full multi-job scheduler
// simulation — a generated (or replayed) trace pushed through
// workload.Run under one malleability policy — and the campaign is the
// cartesian sweep kind × load × malleable-fraction × policy, fanned
// across the same ForEach pool as every other campaign. Cells are
// independent deterministic simulations (the trace regenerates from the
// spec inside the cell), so the assembled rows, the serialized CSV, and
// the merged telemetry snapshot are byte-identical at any -j.

// DefaultClusterCost prices a reconfiguration from the cluster's own
// calibration: the paper's spawn model plus a full data redistribution at
// the interconnect's bandwidth.
func DefaultClusterCost(cl cluster.Config) rms.CostModel {
	return rms.PaperCostModel(cl.SpawnBase, cl.SpawnPerProc, cl.Net.Bandwidth, cl.CoresPerNode)
}

// ClusterCampaign is one cluster-workload sweep specification.
type ClusterCampaign struct {
	// Cluster is the node inventory; DefaultClusterCost prices its
	// reconfigurations.
	Cluster cluster.Config

	// The sweep axes: every kind × load × frac × policy combination is one
	// cell, policies varying innermost so same-trace cells sit together.
	Kinds    []workload.GenKind
	Loads    []float64
	Fracs    []float64
	Policies []workload.Policy

	// Jobs and Seed parameterize the generated traces; Trace, when
	// non-nil, replays this fixed job list instead and the Kinds/Loads/
	// Fracs axes collapse to the single label "replay".
	Jobs  int
	Seed  int64
	Trace []rms.Job

	// SlowdownTau and DisableBackfill pass through to workload.Params.
	SlowdownTau     float64
	DisableBackfill bool

	// Workers bounds the pool parallelism (0: DefaultWorkers, 1:
	// sequential); Obs, when non-nil, receives per-cell telemetry merged
	// under the ordered completion frontier.
	Workers int
	Obs     *Meter
}

// ClusterRow is one campaign cell's summary, in sweep order.
type ClusterRow struct {
	Kind   string
	Load   float64
	Frac   float64
	Policy string

	Jobs            int
	Makespan        float64
	Utilization     float64
	Throughput      float64
	MeanWait        float64
	MeanSlowdown    float64
	P95Slowdown     float64
	MaxSlowdown     float64
	Reconfigs       int
	ReconfigSeconds float64
	PeakCores       int
	MaxQueueDepth   int
}

// cell is one expanded sweep coordinate.
type clusterCell struct {
	kind workload.GenKind
	load float64
	frac float64
	pol  workload.Policy
}

// cells expands the sweep axes, policies innermost.
func (c ClusterCampaign) cells() []clusterCell {
	kinds, loads, fracs := c.Kinds, c.Loads, c.Fracs
	if c.Trace != nil {
		kinds, loads, fracs = []workload.GenKind{"replay"}, []float64{0}, []float64{0}
	}
	var out []clusterCell
	for _, k := range kinds {
		for _, l := range loads {
			for _, f := range fracs {
				for _, p := range c.Policies {
					out = append(out, clusterCell{kind: k, load: l, frac: f, pol: p})
				}
			}
		}
	}
	return out
}

// Run executes the campaign and returns one row per cell in sweep order.
// progress, when non-nil, receives one line per completed cell, in order.
func (c ClusterCampaign) Run(progress func(string)) ([]ClusterRow, error) {
	if len(c.Policies) == 0 {
		return nil, fmt.Errorf("harness: cluster campaign needs at least one policy")
	}
	if c.Trace == nil && (len(c.Kinds) == 0 || len(c.Loads) == 0 || len(c.Fracs) == 0) {
		return nil, fmt.Errorf("harness: cluster campaign needs kinds, loads, and fracs (or a replay trace)")
	}
	cost := DefaultClusterCost(c.Cluster)
	cells := c.cells()
	rows := make([]ClusterRow, len(cells))
	var (
		walls   []time.Duration
		streams []*obs.Stream
	)
	if c.Obs != nil {
		walls = make([]time.Duration, len(cells))
		streams = make([]*obs.Stream, len(cells))
	}
	err := ForEach(len(cells), c.Workers, func(i int) error {
		cell := cells[i]
		jobs := c.Trace
		if jobs == nil {
			var err error
			jobs, err = workload.Generate(workload.GenSpec{
				Kind: cell.kind, Seed: c.Seed, Jobs: c.Jobs,
				Cores: c.Cluster.Nodes * c.Cluster.CoresPerNode,
				Load:  cell.load, MalleableFrac: cell.frac,
			})
			if err != nil {
				return fmt.Errorf("harness: cell %s: %w", clusterLabel(cell), err)
			}
		}
		var stream *obs.Stream
		var t0 time.Time
		if c.Obs != nil {
			stream = getStream()
			streams[i] = stream
			t0 = time.Now()
		}
		res, err := workload.Run(jobs, workload.Params{
			Cluster: c.Cluster, Cost: cost, Policy: cell.pol,
			DisableBackfill: c.DisableBackfill, SlowdownTau: c.SlowdownTau,
			Telemetry: stream,
		})
		if c.Obs != nil {
			walls[i] = time.Since(t0)
		}
		if err != nil {
			return fmt.Errorf("harness: cell %s: %w", clusterLabel(cell), err)
		}
		rows[i] = ClusterRow{
			Kind: string(cell.kind), Load: cell.load, Frac: cell.frac, Policy: cell.pol.Name(),
			Jobs:     len(res.Jobs),
			Makespan: res.Makespan, Utilization: res.Utilization, Throughput: res.Throughput,
			MeanWait: res.MeanWait, MeanSlowdown: res.MeanSlowdown,
			P95Slowdown: res.P95Slowdown, MaxSlowdown: res.MaxSlowdown,
			Reconfigs: res.Reconfigs, ReconfigSeconds: res.ReconfigSeconds,
			PeakCores: res.PeakCores, MaxQueueDepth: res.MaxQueueDepth,
		}
		return nil
	}, func(i int) {
		if c.Obs != nil {
			c.Obs.CellDone(CellStats{Wall: walls[i], Survived: true, MaxRung: -1, Stream: streams[i]})
			streams[i] = nil
		}
		if progress != nil {
			r := rows[i]
			progress(fmt.Sprintf("%-34s makespan=%8.1fs util=%.3f slowdown=%5.2f reconfigs=%d",
				clusterLabel(cells[i]), r.Makespan, r.Utilization, r.MeanSlowdown, r.Reconfigs))
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// clusterLabel names one cell for progress and errors.
func clusterLabel(c clusterCell) string {
	return fmt.Sprintf("%s/l%.2f/m%.2f/%s", c.kind, c.load, c.frac, c.pol.Name())
}

// clusterCSVHeader is the fixed column layout of WriteClusterCSV.
const clusterCSVHeader = "kind,load,frac,policy,jobs,makespan,utilization,throughput,meanWait,meanSlowdown,p95Slowdown,maxSlowdown,reconfigs,reconfigSeconds,peakCores,maxQueueDepth"

// WriteClusterCSV serializes campaign rows with shortest-exact float
// formatting: deterministic rows produce byte-identical files.
func WriteClusterCSV(w io.Writer, rows []ClusterRow) error {
	if _, err := fmt.Fprintln(w, clusterCSVHeader); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rows {
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%d,%s,%s,%s,%s,%s,%s,%s,%d,%s,%d,%d\n",
			r.Kind, g(r.Load), g(r.Frac), r.Policy, r.Jobs,
			g(r.Makespan), g(r.Utilization), g(r.Throughput),
			g(r.MeanWait), g(r.MeanSlowdown), g(r.P95Slowdown), g(r.MaxSlowdown),
			r.Reconfigs, g(r.ReconfigSeconds), r.PeakCores, r.MaxQueueDepth)
		if err != nil {
			return err
		}
	}
	return nil
}
