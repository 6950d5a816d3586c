package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/rms"
	"repro/internal/synthapp"
	"repro/internal/trace"
	"repro/internal/workload"
)

// bench is one named workload of the benchmark. setup prepares what a round
// needs (timed as setup_s); round is the timed part (wall_s) and returns
// per-cell host times, failures and output digests; traced reruns the
// round under the tracer for the per-layer metrics.
type bench interface {
	name() string
	setup() (any, error)
	// Cells are timed with m (see clock.go).
	round(in any, workers int, m *meter) (roundResult, error)
	// traced runs one round with every cell under the tracer's sinks and
	// spans (parented by parent).
	traced(t *tracer, parent, workers int) (roundResult, error)
}

type roundResult struct {
	cells     []float64 // host seconds per cell; +Inf for a failed cell
	attempted int
	failed    int
	digest    string // all digests of the round, for round-to-round checks
	digests   []digestCheck
	failures  []planFailure
	errs      []string // output checks that did not hold
	extra     map[string]metric
}

// finish derives the combined round digest.
func (rr *roundResult) finish() {
	var parts []string
	for _, d := range rr.digests {
		parts = append(parts, d.Value)
	}
	rr.digest = strings.Join(parts, ",")
}

var workloads = map[string]func(seed int64) bench{
	"paper-grid":    func(seed int64) bench { return paperGrid{} },
	"scale-shrink":  func(seed int64) bench { return scaleShrink{} },
	"fault-chaos":   func(seed int64) bench { return faultChaos{seed: seed} },
	"cluster-trace": func(seed int64) bench { return clusterTrace{seed: seed} },
}

func workloadNames() []string { return sortedKeys(workloads) }

// firstLine trims an error to its deterministic first line (a simulated
// panic carries a goroutine stack whose addresses vary run to run).
func firstLine(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return msg
}

// ---------------------------------------------------------------- paper-grid

// paperGrid is the paper's own evaluation at paper scale: the CG emulation
// over all twelve configurations, three (NS, NT) pairs and both networks,
// repetition 0. It has no generated input; the input seed is ignored.
type paperGrid struct{}

var gridPairs = []harness.Pair{{NS: 160, NT: 20}, {NS: 20, NT: 160}, {NS: 120, NT: 40}}

type gridCell struct {
	net   string
	setup harness.Setup
	pair  harness.Pair
	cfg   core.Config
}

func (paperGrid) name() string { return "paper-grid" }

func (paperGrid) setup() (any, error) {
	var cells []gridCell
	for _, net := range []string{"ethernet", "infiniband"} {
		params, err := harness.ParseNet(net)
		if err != nil {
			return nil, err
		}
		s := harness.DefaultSetup(params)
		s.Reps, s.Workers = 1, 1
		for _, p := range gridPairs {
			for _, cfg := range core.AllConfigs() {
				cells = append(cells, gridCell{net: net, setup: s, pair: p, cfg: cfg})
				// World construction is part of every cell; build one
				// here so set-up time reflects its cost.
				s.NewWorld(0)
			}
		}
	}
	return cells, nil
}

// gridRun runs every cell through Setup.Sweep, one cell per call, fanned
// across workers by the harness pool so each cell's host time is known.
// With a tracer the cell runs through Setup.RunCellSink with the tracer's
// sink attached instead.
func gridRun(cells []gridCell, workers int, m *meter, t *tracer, parent int) (roundResult, error) {
	n := len(cells)
	times := make([]float64, n)
	results := make([]synthapp.Result, n)
	errs := make([]error, n)
	err := harness.ForEach(n, workers, func(i int) error {
		c := cells[i]
		errs[i] = m.time(&times[i], func() error {
			if t != nil {
				label := fmt.Sprintf("%s %d->%d %s", c.net, c.pair.NS, c.pair.NT, c.cfg)
				ct := t.cell()
				sp := t.begin("harness.Setup.RunCellSink "+label, parent)
				r, err := c.setup.RunCellSink(c.pair, c.cfg, 0, ct.sink)
				t.end(sp)
				t.done(ct, label)
				results[i] = r
				return err
			}
			sw, err := c.setup.Sweep([]harness.Pair{c.pair}, []core.Config{c.cfg}, nil)
			if err == nil {
				results[i] = sw[harness.CellKey{Pair: c.pair, Config: c.cfg}][0]
			}
			return err
		})
		return nil
	}, nil)
	if err != nil {
		return roundResult{}, err
	}
	m.settle()
	rr := roundResult{cells: times, attempted: n}
	var d digest
	for i, c := range cells {
		r := results[i]
		if errs[i] != nil {
			times[i] = math.Inf(1)
			rr.failed++
			d.add("%s %d>%d %s error %s", c.net, c.pair.NS, c.pair.NT, c.cfg, firstLine(errs[i]))
			continue
		}
		d.add("%s %d>%d %s reconfig=%x total=%x", c.net, c.pair.NS, c.pair.NT, c.cfg,
			math.Float64bits(r.ReconfigTime()), math.Float64bits(r.TotalTime))
		if !(r.ReconfigTime() > 0 && r.TotalTime > r.ReconfigTime()) {
			rr.errs = append(rr.errs, fmt.Sprintf("%s %d->%d %s: reconfig %g total %g",
				c.net, c.pair.NS, c.pair.NT, c.cfg, r.ReconfigTime(), r.TotalTime))
		}
	}
	rr.digests = []digestCheck{{Name: "cells", Value: d.sum(), SeedFree: true}}
	rr.finish()
	return rr, nil
}

func (paperGrid) round(in any, workers int, m *meter) (roundResult, error) {
	return gridRun(in.([]gridCell), workers, m, nil, 0)
}

func (w paperGrid) traced(t *tracer, parent, workers int) (roundResult, error) {
	in, err := w.setup()
	if err != nil {
		return roundResult{}, err
	}
	return gridRun(in.([]gridCell), workers, nil, t, parent)
}

// -------------------------------------------------------------- scale-shrink

// scaleShrink runs Merge P2PS and Merge RMAS 2:1 shrinks of a virtual
// dense item at 1000 and 4000 sources, one cell at a time, each under a
// 16 KiB per-rank ceiling over 64 KiB per-rank blocks so every cell runs
// a multi-wave schedule. It has no generated input; the input seed is
// ignored.
type scaleShrink struct{}

const (
	scaleElemsPerRank = 8192
	scaleCeiling      = 16 << 10
)

var scaleRanks = []int{1000, 4000}

type scaleCell struct {
	ranks int
	cfg   core.Config
	world *mpi.World
	// probe and ct are set on the traced path: probe stamps the host span
	// from the first StartReconfig to the last Wait return, ct is the
	// cell's sink.
	probe *reconfigProbe
	ct    *cellTrace
}

func scaleConfigs() []core.Config {
	var out []core.Config
	for _, comm := range []core.CommMethod{core.P2P, core.RMA} {
		out = append(out, core.Config{Spawn: core.Merge, Comm: comm, Overlap: core.Sync, MemCeiling: scaleCeiling})
	}
	return out
}

func (scaleShrink) name() string        { return "scale-shrink" }
func (scaleShrink) setup() (any, error) { return scaleSetup(nil, false), nil }

// setupSample times one set-up alone with m. Launched worlds must run
// before they can be dropped, so the sample launches ranks that return at
// once (Launch costs the same whatever the ranks will do) and runs them
// untimed.
func (scaleShrink) setupSample(m *meter, dst *float64) error {
	var cells []*scaleCell
	m.time(dst, func() error {
		cells = scaleSetup(nil, true)
		return nil
	})
	for _, c := range cells {
		if err := c.world.Kernel().Run(); err != nil {
			return err
		}
	}
	return nil
}

// scaleSetup builds and launches every cell's world the way the scale
// record composes them: a fresh world, one rank per source, each
// registering its block of the virtual item and reconfiguring to half the
// ranks. With idle set the ranks return at once instead.
func scaleSetup(t *tracer, idle bool) []*scaleCell {
	setup := harness.DefaultSetup(netmodel.Ethernet10G())
	var cells []*scaleCell
	for _, ranks := range scaleRanks {
		for _, cfg := range scaleConfigs() {
			c := &scaleCell{ranks: ranks, cfg: cfg, world: setup.NewWorld(0)}
			if t != nil {
				c.probe, c.ct = &reconfigProbe{}, t.cell()
				c.world.SetSink(c.ct.sink)
			}
			if idle {
				c.world.Launch(ranks, nil, func(*mpi.Ctx, *mpi.Comm) {})
			} else {
				launchShrink(c)
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// reconfigProbe records host time around StartReconfig+Wait across ranks.
// Ranks run one at a time on the kernel, so no locking is needed.
type reconfigProbe struct {
	first, last time.Time
}

func launchShrink(c *scaleCell) {
	ranks, cfg, probe := c.ranks, c.cfg, c.probe
	nt := ranks / 2
	n := int64(ranks) * scaleElemsPerRank
	c.world.Launch(ranks, nil, func(ctx *mpi.Ctx, comm *mpi.Comm) {
		st := core.NewStore()
		it := core.NewDenseVirtual("x", n, 8, false)
		r := int64(comm.Rank(ctx))
		it.SetBlock(r*scaleElemsPerRank, (r+1)*scaleElemsPerRank)
		st.Register(it)
		if probe != nil && probe.first.IsZero() {
			probe.first = time.Now()
		}
		rc := core.StartReconfig(ctx, cfg, comm, nt, st,
			func() *core.Store {
				st := core.NewStore()
				st.Register(core.NewDenseVirtual("x", n, 8, false))
				return st
			},
			func(*mpi.Ctx, *mpi.Comm, *core.Store) {})
		rc.Wait(ctx)
		if probe != nil {
			probe.last = time.Now()
		}
	})
}

func scaleRun(cells []*scaleCell, m *meter, t *tracer, parent int) (roundResult, error) {
	rr := roundResult{attempted: len(cells), cells: make([]float64, len(cells))}
	errs := make([]error, len(cells))
	for i, c := range cells {
		var sp int
		if t != nil {
			sp = t.begin("sim.Kernel.Run "+cellName(c), parent)
		}
		errs[i] = m.time(&rr.cells[i], c.world.Kernel().Run)
		if t != nil {
			t.end(sp)
			t.done(c.ct, cellName(c))
			t.add("sim.run_s", rr.cells[i])
			if !c.probe.first.IsZero() {
				t.add("core.reconfig_s", c.probe.last.Sub(c.probe.first).Seconds())
			}
		}
	}
	m.settle()
	var d digest
	secs := map[string]float64{}
	for i, c := range cells {
		k, err := c.world.Kernel(), errs[i]
		if err != nil {
			rr.cells[i] = math.Inf(1)
		}
		secs[cellName(c)] = rr.cells[i]
		if err != nil {
			rr.failed++
			d.add("%s error %s", cellName(c), firstLine(err))
			continue
		}
		d.add("%s end=%x", cellName(c), math.Float64bits(k.Now()))
	}
	rr.digests = []digestCheck{{Name: "cells", Value: d.sum(), SeedFree: true}}
	rr.finish()

	big, small := scaleRanks[len(scaleRanks)-1], scaleRanks[0]
	p2p, rma := scaleConfigs()[0], scaleConfigs()[1]
	at := func(ranks int, cfg core.Config) float64 { return secs[fmt.Sprintf("%d %s", ranks, cfg)] }
	perRank := func(ranks int) float64 { return (at(ranks, p2p) + at(ranks, rma)) / float64(ranks) }
	rr.extra = map[string]metric{
		"p2p_ranks_per_s":  {float64(big) / at(big, p2p), "ranks/s"},
		"rma_ranks_per_s":  {float64(big) / at(big, rma), "ranks/s"},
		"rank_cost_growth": {perRank(big) / perRank(small), "ratio"},
	}
	return rr, nil
}

func cellName(c *scaleCell) string { return fmt.Sprintf("%d %s", c.ranks, c.cfg) }

func (scaleShrink) round(in any, workers int, m *meter) (roundResult, error) {
	return scaleRun(in.([]*scaleCell), m, nil, 0)
}

func (scaleShrink) traced(t *tracer, parent, workers int) (roundResult, error) {
	rr, err := scaleRun(scaleSetup(t, false), nil, t, parent)
	if err == nil && !(t.peakLive > 0 && t.peakLive <= 4*scaleCeiling) {
		rr.errs = append(rr.errs, fmt.Sprintf("%s gauge %g outside (0, 4 x %d]",
			core.PeakLiveBytesGauge, t.peakLive, scaleCeiling))
	}
	return rr, err
}

// --------------------------------------------------------------- fault-chaos

// faultChaos is a seeded chaos campaign over all 18 resilient
// configurations at 40->20 and 80->40, four plans per configuration and at
// most three faults per plan, composed from GenerateChaosPlan and RunPlan
// so a failing plan costs one run (no shrinking).
type faultChaos struct{ seed int64 }

var chaosPairs = []harness.Pair{{NS: 40, NT: 20}, {NS: 80, NT: 40}}

const (
	chaosPlans     = 4
	chaosMaxFaults = 3
)

type chaosIn struct {
	setup   harness.Setup
	configs []core.Config
}

// chaosCell is one (pair, configuration) of the campaign.
type chaosCell struct {
	pair   harness.Pair
	cfgIdx int
	cfg    core.Config
}

func (faultChaos) name() string { return "fault-chaos" }

func (faultChaos) setup() (any, error) {
	configs, err := harness.FaultConfigs("all")
	if err != nil {
		return nil, err
	}
	in := chaosIn{setup: harness.DefaultSetup(netmodel.Ethernet10G()), configs: configs}
	in.setup.Reps = 1
	// One world per probe and per plan run.
	for i := 0; i < len(chaosPairs)*len(configs)*(1+chaosPlans); i++ {
		in.setup.NewWorld(0)
	}
	return in, nil
}

func (in chaosIn) cells() []chaosCell {
	var out []chaosCell
	for _, p := range chaosPairs {
		for i, cfg := range in.configs {
			out = append(out, chaosCell{pair: p, cfgIdx: i, cfg: cfg})
		}
	}
	return out
}

// runWithPlan is one resilient run of a cell under a fault plan, composed
// from the public fault and synthapp entry points exactly as the harness
// composes its own plan runs.
func runWithPlan(s harness.Setup, p harness.Pair, cfg core.Config, plan fault.Plan,
	rec *trace.Recorder, sink trace.Sink) (synthapp.Result, error) {

	w := s.NewWorld(0)
	inj := fault.NewInjector(w, plan)
	inj.Arm()
	return synthapp.Run(w, synthapp.RunParams{
		Cfg: s.Cfg, Malleability: cfg, NS: p.NS, NT: p.NT,
		Recorder: rec, Sink: sink,
		Resilience: &core.Resilience{Detector: inj.Detector()},
	})
}

// phaseWindow is the [earliest start, latest end] of a phase's spans,
// widened to the traffic tagged with the phase when the spans are instants
// (passive Baseline RMA sources), as the harness locates chaos windows.
func phaseWindow(events []trace.Event, phase string) (lo, hi float64, ok bool) {
	grow := func(start, end float64) {
		if !ok || start < lo {
			lo = start
		}
		if !ok || end > hi {
			hi = end
		}
		ok = true
	}
	for _, ev := range events {
		if ev.Kind == trace.EvPhase && ev.Op == phase {
			grow(ev.Start, ev.End)
		}
	}
	if ok && hi > lo {
		return lo, hi, true
	}
	for _, ev := range events {
		if ev.Kind != trace.EvPhase && ev.Phase == phase {
			grow(ev.Start, ev.End)
		}
	}
	return lo, hi, ok
}

// chaosVictims are the gids a plan may crash: the pure sources beyond rank
// 0 (under Merge, ranks below NT double as targets).
func chaosVictims(cfg core.Config, p harness.Pair) []int {
	lo := 1
	if cfg.Spawn == core.Merge {
		lo = p.NT
	}
	var out []int
	for g := lo; g < p.NS; g++ {
		out = append(out, g)
	}
	return out
}

// subSeed is the campaign's per-(config, plan) seed derivation (a
// splitmix64 step), so plan k of a configuration is the plan `faultsweep
// -chaos -chaos-seed S` draws for it.
func subSeed(master int64, cfgIdx, planIdx int) int64 {
	z := uint64(master) + 0x9e3779b97f4a7c15*uint64(cfgIdx*1000003+planIdx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & 0x7fffffffffffffff)
}

// planFailure is a chaos plan that did not survive, kept as a replayable
// plan file.
type planFailure struct {
	name string
	file fault.PlanFile
}

// chaosPlansFor locates every cell's fault-free redistribution window
// (the probes users pay on every campaign) and draws its plans. It also
// returns each probe's host time.
func (w faultChaos) chaosPlansFor(in chaosIn, cells []chaosCell, workers int, m *meter) ([]fault.Plan, []float64, error) {
	type window struct{ lo, hi float64 }
	wins := make([]window, len(cells))
	probes := make([]float64, len(cells))
	err := harness.ForEach(len(cells), workers, func(i int) error {
		c := cells[i]
		rec := trace.NewRecorder()
		err := m.time(&probes[i], func() error {
			_, err := runWithPlan(in.setup, c.pair, c.cfg, fault.Plan{}, rec, nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("chaos probe %d->%d %s: %w", c.pair.NS, c.pair.NT, c.cfg, err)
		}
		lo, hi, ok := phaseWindow(rec.Events(), trace.PhaseRedistVar)
		if !ok || hi <= lo {
			return fmt.Errorf("chaos probe %d->%d %s recorded no %s window", c.pair.NS, c.pair.NT, c.cfg, trace.PhaseRedistVar)
		}
		wins[i] = window{lo, hi}
		return nil
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	plans := make([]fault.Plan, 0, len(cells)*chaosPlans)
	for i, c := range cells {
		for k := 0; k < chaosPlans; k++ {
			seed := subSeed(w.seed, c.cfgIdx, k)
			plan := harness.GenerateChaosPlan(rand.New(rand.NewSource(seed)), chaosMaxFaults,
				wins[i].lo, wins[i].hi, chaosVictims(c.cfg, c.pair), in.setup.Cluster.Nodes, 0)
			plan.Seed = seed
			plans = append(plans, plan)
		}
	}
	return plans, probes, nil
}

// chaosRun runs every plan through RunPlan. With a tracer each plan runs
// through the same composition with the tracer's sink attached, and the
// round adds the per-plan highest recovery rung as a digest.
func (w faultChaos) chaosRun(in chaosIn, workers int, m *meter, t *tracer, parent int) (roundResult, error) {

	cells := in.cells()
	plans, probes, err := w.chaosPlansFor(in, cells, workers, m)
	if err != nil {
		return roundResult{}, err
	}
	n := len(plans)
	times := make([]float64, n)
	survived := make([]bool, n)
	msgs := make([]string, n)
	rungs := make([]int, n)
	err = harness.ForEach(n, workers, func(i int) error {
		c := cells[i/chaosPlans]
		// A dying plan is a survival outcome, not a failed timing: its
		// host time counts like any other plan's.
		m.time(&times[i], func() error {
			if t != nil {
				label := fmt.Sprintf("%d->%d %s plan%d", c.pair.NS, c.pair.NT, c.cfg, i%chaosPlans)
				ct := t.cell()
				sp := t.begin("fault+synthapp.Run "+label, parent)
				// RunPlan records every event; so does the traced run.
				_, err := runWithPlan(in.setup, c.pair, c.cfg, plans[i], trace.NewRecorder(), ct.sink)
				t.end(sp)
				t.done(ct, label)
				survived[i], rungs[i] = err == nil, ct.ls.maxRung
				if err != nil {
					msgs[i] = firstLine(err)
				}
			} else {
				survived[i], msgs[i] = in.setup.RunPlan(c.pair, c.cfg, 0, harness.FaultParams{}, plans[i])
			}
			return nil
		})
		return nil
	}, nil)
	if err != nil {
		return roundResult{}, err
	}
	m.settle()
	// A cell is one (pair, configuration) of the campaign: its host time is
	// its window probe plus its plans' runs, +Inf when any plan died.
	// Summing five runs steadies the cell times, which the collector makes
	// noisy one short run at a time.
	rr := roundResult{attempted: n, cells: probes}
	var d digest
	for i, plan := range plans {
		c := cells[i/chaosPlans]
		k := i % chaosPlans
		rr.cells[i/chaosPlans] += times[i]
		if survived[i] {
			d.add("%d>%d %s plan%d survived", c.pair.NS, c.pair.NT, c.cfg, k)
			continue
		}
		rr.cells[i/chaosPlans] = math.Inf(1)
		rr.failed++
		d.add("%d>%d %s plan%d died %s", c.pair.NS, c.pair.NT, c.cfg, k, msgs[i])
		rr.failures = append(rr.failures, planFailure{
			name: fmt.Sprintf("%dto%d-%s-plan%d", c.pair.NS, c.pair.NT, strings.ReplaceAll(c.cfg.String(), " ", "_"), k),
			file: fault.PlanFile{
				Version: 1, Config: c.cfg.String(), NS: c.pair.NS, NT: c.pair.NT,
				Net: "ethernet", Rep: 0, Failure: msgs[i], Plan: plan,
			},
		})
	}
	rr.digests = []digestCheck{{Name: "survival", Value: d.sum()}}
	if t != nil {
		var rd digest
		for i := range plans {
			rd.add("%d", rungs[i])
		}
		rr.digests = append(rr.digests, digestCheck{Name: "rungs", Value: rd.sum()})
	}
	rr.finish()
	return rr, nil
}

func (w faultChaos) round(in any, workers int, m *meter) (roundResult, error) {
	return w.chaosRun(in.(chaosIn), workers, m, nil, 0)
}

func (w faultChaos) traced(t *tracer, parent, workers int) (roundResult, error) {
	in, err := w.setup()
	if err != nil {
		return roundResult{}, err
	}
	return w.chaosRun(in.(chaosIn), workers, nil, t, parent)
}

// ------------------------------------------------------------- cluster-trace

// clusterTrace is the cluster campaign over one seeded bursty job trace
// at load 1.0 with every job malleable, under all four policies.
type clusterTrace struct{ seed int64 }

const clusterJobs = 600

func clusterConfig() cluster.Config { return cluster.Default(netmodel.Ethernet10G()) }

func (clusterTrace) name() string { return "cluster-trace" }

// setup generates the job trace (the campaign then replays it per policy).
func (w clusterTrace) setup() (any, error) {
	cl := clusterConfig()
	return workload.Generate(workload.GenSpec{
		Kind: workload.GenBursty, Seed: w.seed, Jobs: clusterJobs,
		Cores: cl.Nodes * cl.CoresPerNode, Load: 1.0, MalleableFrac: 1.0,
	})
}

// clusterRun runs one single-policy ClusterCampaign per policy, fanned
// across workers, so each policy cell's host time is known. With a tracer
// each campaign carries a telemetry meter whose counters join the sink
// counts.
func clusterRun(jobs []rms.Job, workers int, m *meter, t *tracer, parent int) (roundResult, error) {
	pols := workload.Policies()
	rows := make([]harness.ClusterRow, len(pols))
	times := make([]float64, len(pols))
	errs := make([]error, len(pols))
	err := harness.ForEach(len(pols), workers, func(i int) error {
		camp := harness.ClusterCampaign{
			Cluster: clusterConfig(), Trace: jobs, Policies: pols[i : i+1], Workers: 1,
		}
		var sp int
		if t != nil {
			camp.Obs = harness.NewMeter(harness.MeterOptions{})
			sp = t.begin("harness.ClusterCampaign.Run "+pols[i].Name(), parent)
		}
		errs[i] = m.time(&times[i], func() error {
			r, err := camp.Run(nil)
			if err == nil {
				rows[i] = r[0]
			}
			return err
		})
		if t != nil {
			t.end(sp)
			t.add("workload.cell_s."+pols[i].Name(), times[i])
			t.add("workload.reconfigs", float64(rows[i].Reconfigs))
			t.addCounters("cluster/"+pols[i].Name(), camp.Obs.Snapshot())
		}
		return nil
	}, nil)
	if err != nil {
		return roundResult{}, err
	}
	m.settle()
	rr := roundResult{cells: times, attempted: len(pols)}
	var ok []harness.ClusterRow
	for i, e := range errs {
		if e != nil {
			times[i] = math.Inf(1)
			rr.failed++
			rr.errs = append(rr.errs, fmt.Sprintf("policy %s: %v", pols[i].Name(), e))
			continue
		}
		ok = append(ok, rows[i])
	}
	var csv bytes.Buffer
	if err := harness.WriteClusterCSV(&csv, ok); err != nil {
		return roundResult{}, err
	}
	rr.digests = []digestCheck{{Name: "rows", Value: (&digest{h: csv.Bytes()}).sum()}}
	rr.errs = append(rr.errs, malleableBeatsRigid(ok)...)
	rr.finish()
	return rr, nil
}

// malleableBeatsRigid checks that every malleable policy finishes the
// trace sooner than the rigid baseline.
func malleableBeatsRigid(rows []harness.ClusterRow) []string {
	rigid := math.NaN()
	for _, r := range rows {
		if r.Policy == (workload.RigidPolicy{}).Name() {
			rigid = r.Makespan
		}
	}
	var out []string
	for _, r := range rows {
		if r.Policy != (workload.RigidPolicy{}).Name() && !(r.Makespan < rigid) {
			out = append(out, fmt.Sprintf("policy %s makespan %g not below rigid %g", r.Policy, r.Makespan, rigid))
		}
	}
	sort.Strings(out)
	return out
}

func (clusterTrace) round(in any, workers int, m *meter) (roundResult, error) {
	return clusterRun(in.([]rms.Job), workers, m, nil, 0)
}

func (w clusterTrace) traced(t *tracer, parent, workers int) (roundResult, error) {
	in, err := w.setup()
	if err != nil {
		return roundResult{}, err
	}
	return clusterRun(in.([]rms.Job), workers, nil, t, parent)
}
