package repro

// One benchmark per table/figure of the paper's evaluation (§4). Each
// benchmark regenerates its figure's rows from simulated measurements and
// prints them, so `go test -bench . -benchmem` reproduces the evaluation
// end to end. Runs are cached across benchmarks within one process (the
// simulator is deterministic), so the whole suite performs each (network,
// pair, configuration, repetition) run exactly once.
//
// REPRO_BENCH_REPS overrides the repetitions per cell (default 3; the
// paper uses 5 — cmd/redistsweep reproduces that exactly).

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/synthapp"
)

func benchReps() int {
	if s := os.Getenv("REPRO_BENCH_REPS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 3
}

// cellCache memoizes simulation runs across benchmarks with per-key
// singleflight: the first caller of a key simulates under that cell's own
// sync.Once, so concurrent benchmarks never serialize on a global lock
// while a cell runs, and each cell still runs exactly once per process.
var cellCache sync.Map // key string -> *cellEntry

type cellEntry struct {
	once sync.Once
	res  synthapp.Result
	err  error
}

// printGate ensures each benchmark prints its figure exactly once, even
// though the testing package re-invokes benchmark functions while
// calibrating b.N.
var (
	printMu   sync.Mutex
	printSeen = map[string]bool{}
)

// printOnce reports whether the named figure should print now.
func printOnce(name string) bool {
	printMu.Lock()
	defer printMu.Unlock()
	if printSeen[name] {
		return false
	}
	printSeen[name] = true
	return true
}

func runCellCached(b *testing.B, setup harness.Setup, p harness.Pair, cfg core.Config, rep int) synthapp.Result {
	b.Helper()
	key := fmt.Sprintf("%s|%d|%d|%s|%d", setup.Net.Name, p.NS, p.NT, cfg, rep)
	v, _ := cellCache.LoadOrStore(key, &cellEntry{})
	e := v.(*cellEntry)
	e.once.Do(func() { e.res, e.err = setup.RunCell(p, cfg, rep) })
	if e.err != nil {
		b.Fatalf("%s: %v", key, e.err)
	}
	return e.res
}

func measure(b *testing.B, setup harness.Setup, pairs []harness.Pair, configs []core.Config) harness.Measurements {
	b.Helper()
	m := harness.Measurements{}
	for _, p := range pairs {
		for _, cfg := range configs {
			key := harness.CellKey{Pair: p, Config: cfg}
			for rep := 0; rep < setup.Reps; rep++ {
				m[key] = append(m[key], runCellCached(b, setup, p, cfg, rep))
			}
		}
	}
	return m
}

func setupFor(name string) harness.Setup {
	var s harness.Setup
	if name == "ethernet" {
		s = harness.DefaultSetup(netmodel.Ethernet10G())
	} else {
		s = harness.DefaultSetup(netmodel.InfinibandEDR())
	}
	s.Reps = benchReps()
	return s
}

func plotPairs() []harness.Pair {
	return append(harness.From160(), harness.To160()...)
}

// benchSyncFigure regenerates Figure 2 (Ethernet) or 3 (Infiniband).
func benchSyncFigure(b *testing.B, netName, figure string) {
	setup := setupFor(netName)
	for i := 0; i < b.N; i++ {
		m := measure(b, setup, plotPairs(), harness.SyncConfigs())
		if i == 0 && printOnce(b.Name()) {
			harness.RenderSeries(os.Stdout,
				figure+" top: sync reconfiguration time (s), shrink from 160 ("+netName+")",
				harness.SyncReconfigSeries(m, harness.From160()))
			harness.RenderSeries(os.Stdout,
				figure+" bottom: sync reconfiguration time (s), expand to 160 ("+netName+")",
				harness.SyncReconfigSeries(m, harness.To160()))
		}
	}
}

func BenchmarkFig2SyncEthernet(b *testing.B)   { benchSyncFigure(b, "ethernet", "Fig 2") }
func BenchmarkFig3SyncInfiniband(b *testing.B) { benchSyncFigure(b, "infiniband", "Fig 3") }

// benchAlphaFigure regenerates Figure 4 (Ethernet) or 5 (Infiniband).
func benchAlphaFigure(b *testing.B, netName, figure string) {
	setup := setupFor(netName)
	for i := 0; i < b.N; i++ {
		m := measure(b, setup, plotPairs(), core.AllConfigs())
		if i == 0 && printOnce(b.Name()) {
			harness.RenderSeries(os.Stdout,
				figure+" top: alpha = async/sync reconfiguration, shrink from 160 ("+netName+")",
				harness.AlphaSeries(m, harness.From160()))
			harness.RenderSeries(os.Stdout,
				figure+" bottom: alpha = async/sync reconfiguration, expand to 160 ("+netName+")",
				harness.AlphaSeries(m, harness.To160()))
		}
	}
}

func BenchmarkFig4AlphaEthernet(b *testing.B)   { benchAlphaFigure(b, "ethernet", "Fig 4") }
func BenchmarkFig5AlphaInfiniband(b *testing.B) { benchAlphaFigure(b, "infiniband", "Fig 5") }

// benchGridPairs is the reduced (NS, NT) grid the best-method benchmarks
// sweep; cmd/redistsweep -pairs all covers the paper's full 42 cells.
func benchGridPairs() []harness.Pair {
	counts := []int{2, 20, 80, 160}
	var out []harness.Pair
	for _, ns := range counts {
		for _, nt := range counts {
			if ns != nt {
				out = append(out, harness.Pair{NS: ns, NT: nt})
			}
		}
	}
	return out
}

// benchBestMap regenerates Figure 6 (reconfiguration metric) or Figure 9
// (total-time metric) on both networks.
func benchBestMap(b *testing.B, metric harness.Metric, figure string) {
	for i := 0; i < b.N; i++ {
		for _, netName := range []string{"ethernet", "infiniband"} {
			setup := setupFor(netName)
			m := measure(b, setup, benchGridPairs(), core.AllConfigs())
			if i == 0 && printOnce(b.Name()+"/"+netName) {
				rejected, tested := harness.ShapiroSummary(m, metric, 0.05)
				fmt.Printf("== %s (%s): Shapiro-Wilk rejects normality in %d/%d cells ==\n",
					figure, netName, rejected, tested)
				bm := harness.BestMethodMap(m, benchGridPairs(), core.AllConfigs(), metric, 0.05)
				bm.Render(os.Stdout)
				top, n := bm.TopWinner()
				fmt.Printf("preferred method on %s: %s (%d cells)\n\n", netName, top, n)
			}
		}
	}
}

func BenchmarkFig6BestReconfig(b *testing.B) { benchBestMap(b, harness.ReconfigMetric, "Fig 6") }
func BenchmarkFig9BestApp(b *testing.B)      { benchBestMap(b, harness.TotalMetric, "Fig 9") }

// benchAppFigure regenerates Figure 7 (Ethernet) or 8 (Infiniband).
func benchAppFigure(b *testing.B, netName, figure string) {
	setup := setupFor(netName)
	for i := 0; i < b.N; i++ {
		m := measure(b, setup, plotPairs(), core.AllConfigs())
		if i == 0 && printOnce(b.Name()) {
			for _, fam := range []struct {
				label string
				pairs []harness.Pair
			}{
				{figure + " top: speedup vs Baseline COLS, shrink from 160 (" + netName + ")", harness.From160()},
				{figure + " bottom: speedup vs Baseline COLS, expand to 160 (" + netName + ")", harness.To160()},
			} {
				sp, ref := harness.SpeedupSeries(m, fam.pairs)
				harness.RenderSeries(os.Stdout, fam.label, sp)
				harness.RenderSeries(os.Stdout, fam.label+" [right axis reference]", []harness.Series{ref})
			}
			spAll, _ := harness.SpeedupSeries(m, plotPairs())
			best, label := harness.MaxSpeedup(spAll)
			fmt.Printf("max speedup on %s: %.3fx (%s); paper: 1.14x Ethernet / 1.21x Infiniband\n\n",
				netName, best, label)
		}
	}
}

func BenchmarkFig7AppEthernet(b *testing.B)   { benchAppFigure(b, "ethernet", "Fig 7") }
func BenchmarkFig8AppInfiniband(b *testing.B) { benchAppFigure(b, "infiniband", "Fig 8") }

// BenchmarkAblationAlltoallvAlgorithms isolates §4.4.2: blocking pairwise
// exchange versus non-blocking scattered Alltoallv on an oversubscribed
// inter-communicator — the reason Baseline COLA can beat Baseline COLS.
func BenchmarkAblationAlltoallvAlgorithms(b *testing.B) {
	setup := setupFor("ethernet")
	run := func(blocking bool) float64 {
		w := setup.NewWorld(1)
		ns, nt := 80, 80
		chunk := int64(4 << 30 / (ns * nt))
		var done float64
		w.Launch(ns, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
			inter := c.Spawn(comm, nt, nil, func(child *mpi.Ctx, _ *mpi.Comm) {
				pc := child.Proc().Parent()
				send := make([]mpi.Payload, pc.RemoteSize())
				for i := range send {
					send[i] = mpi.Virtual(0)
				}
				if blocking {
					child.Alltoallv(pc, send)
				} else {
					child.Wait(child.Ialltoallv(pc, send))
				}
			})
			send := make([]mpi.Payload, inter.RemoteSize())
			for i := range send {
				send[i] = mpi.Virtual(chunk)
			}
			if blocking {
				c.Alltoallv(inter, send)
			} else {
				c.Wait(c.Ialltoallv(inter, send))
			}
			if t := c.Now(); t > done {
				done = t
			}
		})
		if err := w.Kernel().Run(); err != nil {
			b.Fatal(err)
		}
		return done
	}
	for i := 0; i < b.N; i++ {
		tBlocking := run(true)
		tScattered := run(false)
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Ablation: inter-communicator Alltoallv algorithm (80+80 procs, 4 GB) ==\n")
			fmt.Printf("pairwise exchange (COLS path):  %.3f s\n", tBlocking)
			fmt.Printf("scattered non-blocking (COLA):  %.3f s\n", tScattered)
			fmt.Printf("alpha inversion (pairwise/scattered): %.2f — why Baseline COLA can undercut COLS\n\n",
				tBlocking/tScattered)
		}
	}
}

// BenchmarkAblationWaitMode compares MPICH-style polling waits with the
// blocking waits §3.2 suggests, for the thread-based Merge COLT
// reconfiguration whose auxiliary threads otherwise burn cores.
func BenchmarkAblationWaitMode(b *testing.B) {
	cfg := core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.Thread}
	pair := harness.Pair{NS: 80, NT: 160} // expansion overlaps tens of iterations
	for i := 0; i < b.N; i++ {
		var results [2]synthapp.Result
		for j, mode := range []mpi.WaitMode{mpi.PollingWait, mpi.BlockingWait} {
			setup := setupFor("ethernet")
			setup.MPIOpts.WaitMode = mode
			res, err := setup.RunCell(pair, cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			results[j] = res
		}
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Ablation: wait mode for Merge COLT 80->160 (Ethernet) ==\n")
			fmt.Printf("polling waits  (MPICH default): reconfig %.3f s, iteration during %.4f s\n",
				results[0].ReconfigTime(), results[0].IterTimeDuring)
			fmt.Printf("blocking waits (paper's fix):   reconfig %.3f s, iteration during %.4f s\n",
				results[1].ReconfigTime(), results[1].IterTimeDuring)
			fmt.Printf("blocking waits cut the overlapped iteration cost by %.2fx\n\n",
				results[0].IterTimeDuring/results[1].IterTimeDuring)
		}
	}
}

// BenchmarkAblationKeepOwnData quantifies §5's proposed optimization: how
// much of the working set a Merge reconfiguration already keeps local
// under block distributions (Baseline always moves everything).
func BenchmarkAblationKeepOwnData(b *testing.B) {
	const n = synthapp.CGRows
	for i := 0; i < b.N; i++ {
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Ablation: bytes kept local by Merge (block redistribution of %d elements) ==\n", n)
			fmt.Printf("%8s %8s %12s %10s %16s\n", "NS", "NT", "kept local", "of total", "remap upper bnd")
		}
		for _, p := range []harness.Pair{{NS: 160, NT: 80}, {NS: 80, NT: 160}, {NS: 160, NT: 120}, {NS: 120, NT: 160}, {NS: 160, NT: 2}} {
			plan := partition.NewPlan(n, p.NS, p.NT)
			var local int64
			for part := 0; part < p.NT && part < p.NS; part++ {
				local += plan.LocalBytes(part)
			}
			// The §5 future-work remapping keeps each surviving rank's
			// whole old block (shrink) or its whole new block (expand):
			// min(NS,NT)/max(NS,NT) of the data.
			lo, hi := p.NS, p.NT
			if lo > hi {
				lo, hi = hi, lo
			}
			if i == 0 && printOnce(b.Name()) {
				fmt.Printf("%8d %8d %12d %9.1f%% %15.1f%%\n", p.NS, p.NT, local,
					100*float64(local)/float64(n), 100*float64(lo)/float64(hi))
			}
		}
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("(Baseline moves 100%%; the paper's proposed remapping could keep min/max of the data)\n\n")
		}

		// Operationalized: measure the remapped Merge COLS shrink against
		// the block layout on the paper's machine and data volume.
		measure := func(keepOwn bool, ns, nt int) float64 {
			setup := setupFor("ethernet")
			w := setup.NewWorld(1)
			const elems = int64(500_000_000) // ~4 GB at 8 B/element
			var finish float64
			w.Launch(ns, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
				rank := comm.Rank(c)
				it := core.NewDenseVirtual("data", elems, 8, true)
				src := partition.NewBlockDist(elems, ns)
				it.SetBlock(src.Lo(rank), src.Hi(rank))
				if keepOwn {
					it.SetDistribution(func(parts int) partition.Dist {
						if parts == nt {
							return partition.KeepOwnShrinkDist(elems, ns, nt)
						}
						return partition.NewBlockDist(elems, parts)
					})
				}
				st := core.NewStore()
				st.Register(it)
				r := core.StartReconfig(c, core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
					comm, nt, st, func() *core.Store { return core.NewStore() }, nil)
				r.Wait(c)
				if c.Now() > finish {
					finish = c.Now()
				}
			})
			if err := w.Kernel().Run(); err != nil {
				b.Fatal(err)
			}
			return finish
		}
		block := measure(false, 160, 80)
		keep := measure(true, 160, 80)
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("measured Merge COLS 160->80, 4 GB: block layout %.3f s vs contiguous keep-own %.3f s\n"+
				" (moved bytes halve, but the tail concentrates on one receiver: imbalance %.1f).\n"+
				" Finding: the paper's keep-own optimization needs non-contiguous ownership or a\n"+
				" balance-aware remap to beat plain block redistribution.\n\n",
				block, keep,
				partition.Imbalance(partition.KeepOwnShrinkDist(500_000_000, 160, 80)))
		}
	}
}

// BenchmarkAblationRMA evaluates the paper's future-work redistribution
// method (§5): one-sided RMA, where targets pull their chunks and no size
// messages or source CPU are needed, against the paper's P2P and COL
// methods on both spawn methods.
func BenchmarkAblationRMA(b *testing.B) {
	setup := setupFor("ethernet")
	pair := harness.Pair{NS: 160, NT: 80}
	configs := []core.Config{
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.RMA, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.NonBlocking},
		{Spawn: core.Merge, Comm: core.RMA, Overlap: core.NonBlocking},
		{Spawn: core.Baseline, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Baseline, Comm: core.RMA, Overlap: core.Sync},
	}
	for i := 0; i < b.N; i++ {
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Ablation: RMA redistribution (future work §5), 160->80 Ethernet ==\n")
		}
		for _, cfg := range configs {
			res, err := setup.RunCell(pair, cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && printOnce(b.Name()) {
				fmt.Printf("%-16s reconfig %7.3f s  total %7.2f s\n", cfg, res.ReconfigTime(), res.TotalTime)
			}
		}
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("(RMA needs no size messages and no source-side progress: it sidesteps\n" +
				" the pairwise-exchange penalty that hurts Baseline COLS)\n\n")
		}
	}
}

// BenchmarkAblationCheckpointRestart quantifies §2's motivation: on-disk
// reconfiguration (traditional checkpoint/restart through the shared
// parallel filesystem) against the paper's in-memory redistribution, for
// the 4 GB CG working set.
func BenchmarkAblationCheckpointRestart(b *testing.B) {
	setup := setupFor("ethernet")
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.CR, Overlap: core.Sync},
		{Spawn: core.Baseline, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
	}
	pairs := []harness.Pair{{NS: 160, NT: 80}, {NS: 80, NT: 160}}
	for i := 0; i < b.N; i++ {
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Ablation: checkpoint/restart vs in-memory redistribution (Ethernet, ~4 GB) ==\n")
		}
		for _, p := range pairs {
			for _, cfg := range configs {
				res, err := setup.RunCell(p, cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && printOnce(b.Name()) {
					fmt.Printf("%3d->%3d %-14s reconfig %7.3f s\n", p.NS, p.NT, cfg, res.ReconfigTime())
				}
			}
		}
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("(the costly disk round trip is why malleability frameworks moved to\n" +
				" in-memory redistribution — the paper's §2)\n\n")
		}
	}
}

// BenchmarkAblationPipelineDepth sweeps the per-sender in-flight transfer
// cap (DESIGN.md §5): depth 1 serializes rendezvous streams, unlimited
// floods the fluid fabric; 4 is the calibrated default.
func BenchmarkAblationPipelineDepth(b *testing.B) {
	pair := harness.Pair{NS: 160, NT: 80}
	cfg := core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync}
	for i := 0; i < b.N; i++ {
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Ablation: sender pipeline depth (Merge COLS 160->80, Ethernet) ==\n")
		}
		for _, depth := range []int{1, 2, 4, 16, 0} {
			setup := setupFor("ethernet")
			setup.MPIOpts.MaxInFlight = depth
			res, err := setup.RunCell(pair, cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && printOnce(b.Name()) {
				name := fmt.Sprintf("%d", depth)
				if depth == 0 {
					name = "unlimited"
				}
				fmt.Printf("depth %-9s reconfig %7.3f s\n", name, res.ReconfigTime())
			}
		}
		if i == 0 && printOnce(b.Name()) {
			fmt.Println()
		}
	}
}

// BenchmarkAblationEagerThreshold sweeps the eager/rendezvous crossover:
// with everything eager, large blocking sends cannot deadlock but buffer
// unboundedly; with everything rendezvous, small control messages pay
// handshakes. Redistribution times barely move — the protocol choice is
// about semantics (the §3.1 deadlock discussion), not bulk throughput.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	pair := harness.Pair{NS: 160, NT: 80}
	cfg := core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync}
	for i := 0; i < b.N; i++ {
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Ablation: eager threshold (Merge P2PS 160->80, Ethernet) ==\n")
		}
		for _, thresh := range []int64{0, 4 << 10, 64 << 10, 1 << 30} {
			setup := setupFor("ethernet")
			setup.MPIOpts.EagerThreshold = thresh
			res, err := setup.RunCell(pair, cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && printOnce(b.Name()) {
				fmt.Printf("threshold %-12d reconfig %7.3f s\n", thresh, res.ReconfigTime())
			}
		}
		if i == 0 && printOnce(b.Name()) {
			fmt.Println()
		}
	}
}

// BenchmarkStencilApplication runs the tool's second preset: a
// halo-exchange code whose data is entirely variable, so every strategy
// must halt to redistribute — the spawn method alone differentiates.
func BenchmarkStencilApplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("== Stencil preset (all-variable data, Ethernet 120->160) ==\n")
		}
		for _, cfg := range []core.Config{
			{Spawn: core.Baseline, Comm: core.COL, Overlap: core.Sync},
			{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
			{Spawn: core.Merge, Comm: core.P2P, Overlap: core.NonBlocking},
		} {
			setup := setupFor("ethernet")
			setup.Cfg = synthapp.StencilConfig(0.006, 160, 2<<30)
			res, err := setup.RunCell(harness.Pair{NS: 120, NT: 160}, cfg, 1)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && printOnce(b.Name()) {
				fmt.Printf("%-16s reconfig %7.3f s  total %7.2f s\n", cfg, res.ReconfigTime(), res.TotalTime)
			}
		}
		if i == 0 && printOnce(b.Name()) {
			fmt.Printf("(with nothing constant, the A strategy cannot overlap: it matches sync,\n" +
				" and only Merge vs Baseline separates the methods)\n\n")
		}
	}
}

// BenchmarkStatisticsPipeline measures the §4.3 statistics on synthetic
// samples at the paper's scale (12 configurations x 5 repetitions).
func BenchmarkStatisticsPipeline(b *testing.B) {
	groups := make([][]float64, 12)
	for g := range groups {
		groups[g] = make([]float64, 5)
		for r := range groups[g] {
			groups[g][r] = 1 + 0.05*float64(g) + 0.01*float64(r*g%7)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sel := stats.SelectFastest(groups, 0.05)
		if sel.Best < 0 {
			b.Fatal("no selection")
		}
	}
}
