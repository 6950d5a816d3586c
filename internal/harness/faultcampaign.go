package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/synthapp"
	"repro/internal/trace"
	"repro/internal/trace/analyze"
)

// FaultParams tunes one fault-injection campaign cell.
type FaultParams struct {
	// DetectLatency is the failure detector's heartbeat timeout (<= 0:
	// fault.DefaultDetectLatency).
	DetectLatency float64
	// Timeout is the resilient epoch deadline (<= 0: core default).
	Timeout float64
	// CrashFrac positions the crash inside the redistribution window of the
	// fault-free probe run: 0 is the window start, 1 its end. Zero value
	// defaults to 0.5 (mid-redistribution).
	CrashFrac float64
}

// FaultResult reports one fault-injection run against its fault-free
// probe twin.
type FaultResult struct {
	// Survived is true when the faulted run completed (no deadlock, no
	// unrecoverable error); Err carries the failure otherwise.
	Survived bool
	Err      string

	// CrashAt is the injected crash time; VictimGID the killed process.
	CrashAt   float64
	VictimGID int

	// ProbeTotal and TotalTime are the fault-free and faulted virtual
	// application times; Overhead their difference.
	ProbeTotal float64
	TotalTime  float64
	Overhead   float64

	// RecoveryWindow is the recovery stage timer (earliest start to latest
	// end of PhaseRecovery spans); RecoveryPath the critical-path recovery
	// bucket of the faulted run.
	RecoveryWindow float64
	RecoveryPath   float64

	// Faults counts injected/protocol fault events by op.
	Faults map[string]int64

	// MaxRung is the highest recovery-ladder rung the faulted run escalated
	// to (the largest escalate event's rung), or -1 when the run never
	// escalated — the fault was absorbed by deadline extensions alone.
	MaxRung int
}

// runFaultCell executes one fault-injection cell: a fault-free probe run
// under the recovery protocol locates the variable-data redistribution
// window, then a second identically seeded run kills the last source rank
// (a pure source under both Baseline and Merge shrinkage) inside that
// window. The probe error aborts the cell; a faulted-run failure is data
// (Survived = false), not an error. sink, when non-nil, is attached to
// the faulted run. The probe run records nothing but the crash window,
// which it streams; the faulted run keeps its full log for the metrics,
// the critical path and the escalation scan.
func (s Setup) runFaultCell(p Pair, mal core.Config, rep int, fp FaultParams, sink trace.Sink) (FaultResult, error) {
	crashFrac := fp.CrashFrac
	if crashFrac <= 0 || crashFrac >= 1 {
		crashFrac = 0.5
	}

	base := fault.Plan{Seed: int64(rep + 1), DetectLatency: fp.DetectLatency}
	win := &trace.PhaseWindow{Phase: trace.PhaseRedistVar}
	probe, err := s.runWithPlan(p, mal, rep, fp, base, nil, win)
	if err != nil {
		return FaultResult{}, fmt.Errorf("fault-free probe run: %w", err)
	}
	lo, hi, ok := win.Window()
	if !ok || hi <= lo {
		return FaultResult{}, fmt.Errorf("probe run recorded no %s window", trace.PhaseRedistVar)
	}

	out := FaultResult{
		CrashAt:    lo + crashFrac*(hi-lo),
		VictimGID:  p.NS - 1, // launch assigns gid == world rank
		ProbeTotal: probe.TotalTime,
		MaxRung:    -1,
	}
	plan := base
	plan.Actions = []fault.Action{{Kind: fault.CrashRank, GID: out.VictimGID, At: out.CrashAt}}
	rec := trace.NewRecorder()
	res, err := s.runWithPlan(p, mal, rep, fp, plan, rec, sink)
	if err != nil {
		out.Err = err.Error()
		return out, nil
	}
	out.Survived = true
	out.TotalTime = res.TotalTime
	out.Overhead = res.TotalTime - probe.TotalTime
	m := rec.Metrics()
	out.RecoveryWindow = m.TRecovery
	out.Faults = m.Faults
	events := rec.Events()
	out.RecoveryPath = analyze.Analyze(events).Path.Buckets.Recovery
	for _, ev := range events {
		if ev.Kind == trace.EvFault && ev.Op == "escalate" && ev.Tag > out.MaxRung {
			out.MaxRung = ev.Tag
		}
	}
	return out, nil
}

// runWithPlan executes one resilient run of the cell under an arbitrary
// fault plan: a fresh identically-seeded world and the plan armed through
// an injector whose detector feeds the recovery protocol. The run records
// into rec and streams into sink where the caller passes them; with both
// nil it records nothing. Shared by the crash cell, the chaos campaign,
// and plan replay. The world's recycled message state goes on to the next
// run.
func (s Setup) runWithPlan(p Pair, mal core.Config, rep int, fp FaultParams,
	plan fault.Plan, rec *trace.Recorder, sink trace.Sink) (synthapp.Result, error) {

	w := s.NewWorld(rep)
	defer w.Release()
	inj := fault.NewInjector(w, plan)
	inj.Arm()
	return synthapp.Run(w, synthapp.RunParams{
		Cfg: s.Cfg, Malleability: mal, NS: p.NS, NT: p.NT,
		Recorder: rec, Sink: sink,
		Resilience: &core.Resilience{
			Detector: inj.Detector(),
			Timeout:  fp.Timeout,
		},
	})
}

// FaultCampaign sweeps the fault cell over configurations and reps,
// reporting per-configuration survival and overhead. progress, when
// non-nil, receives one line per completed cell.
type FaultCampaignRow struct {
	Config   core.Config
	Runs     int
	Survived int
	// Medians over surviving runs.
	Overhead     float64
	RecoveryPath float64
}

// RunFaultCampaign executes reps repetitions of every configuration on one
// (NS, NT) pair, fanning the independent (config, rep) cells across
// Setup.Workers cores. Rows, per-repetition DIED lines, and per-config
// summaries appear in campaign order regardless of worker count.
func (s Setup) RunFaultCampaign(p Pair, configs []core.Config, fp FaultParams,
	progress func(string)) ([]FaultCampaignRow, error) {

	reps := s.Reps
	if reps <= 0 || len(configs) == 0 {
		return []FaultCampaignRow{}, nil
	}
	n := len(configs) * reps
	results := make([]FaultResult, n)
	rows := make([]FaultCampaignRow, 0, len(configs))
	var (
		walls   []time.Duration
		streams []*obs.Stream
	)
	if s.Obs != nil {
		walls = make([]time.Duration, n)
		streams = make([]*obs.Stream, n)
	}
	err := ForEach(n, s.Workers, func(i int) error {
		cfg, rep := configs[i/reps], i%reps
		var stream *obs.Stream
		var t0 time.Time
		if s.Obs != nil {
			stream = getStream()
			streams[i] = stream
			t0 = time.Now()
		}
		r, err := s.runFaultCell(p, cfg, rep, fp, cellSink(stream))
		if s.Obs != nil {
			walls[i] = time.Since(t0)
		}
		if err != nil {
			return fmt.Errorf("harness: %d->%d %s rep %d: %w", p.NS, p.NT, cfg, rep, err)
		}
		results[i] = r
		return nil
	}, func(i int) {
		cfg, rep := configs[i/reps], i%reps
		if s.Obs != nil {
			s.Obs.CellDone(CellStats{
				Wall: walls[i], Survived: results[i].Survived,
				MaxRung: results[i].MaxRung, Stream: streams[i],
			})
			streams[i] = nil
		}
		if !results[i].Survived && progress != nil {
			progress(fmt.Sprintf("%d->%d %-16s rep %d DIED: %s", p.NS, p.NT, cfg, rep, results[i].Err))
		}
		if rep != reps-1 {
			return
		}
		row := FaultCampaignRow{Config: cfg, Runs: reps}
		var overheads, paths []float64
		for j := i + 1 - reps; j <= i; j++ {
			if results[j].Survived {
				row.Survived++
				overheads = append(overheads, results[j].Overhead)
				paths = append(paths, results[j].RecoveryPath)
			}
		}
		if len(overheads) > 0 {
			row.Overhead = stats.Median(overheads)
			row.RecoveryPath = stats.Median(paths)
		}
		rows = append(rows, row)
		if progress != nil {
			progress(fmt.Sprintf("%d->%d %-16s survived %d/%d  overhead=%.3fs  recovery-path=%.3fs",
				p.NS, p.NT, cfg, row.Survived, row.Runs, row.Overhead, row.RecoveryPath))
		}
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
