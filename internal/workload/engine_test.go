package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/rms"
)

func testCluster() cluster.Config {
	return cluster.Default(netmodel.Ethernet10G())
}

func testCost() rms.CostModel {
	return rms.PaperCostModel(30e-3, 25e-3, 1.25e9, 20)
}

func runPolicy(t *testing.T, kind GenKind, pol Policy, frac float64) Result {
	t.Helper()
	cl := testCluster()
	jobs, err := Generate(GenSpec{Kind: kind, Seed: 1, Jobs: 300, Cores: cl.Nodes * cl.CoresPerNode,
		Load: 1.0, MalleableFrac: frac})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(jobs, Params{Cluster: cl, Cost: testCost(), Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkInvariants asserts the scheduler invariants on one run of jobs:
// allocated cores never exceed the inventory, no job finishes before
// arrival + Work/MaxProcs (its fastest possible shape), rigid jobs never
// reconfigure, every start respects the arrival, and work is conserved.
func checkInvariants(t *testing.T, label string, jobs []rms.Job, res Result, total int) {
	t.Helper()
	if res.PeakCores > total {
		t.Fatalf("%s: peak allocation %d exceeds %d cores", label, res.PeakCores, total)
	}
	if res.Utilization > 1+1e-9 {
		t.Fatalf("%s: utilization %g > 1", label, res.Utilization)
	}
	if len(res.Jobs) != len(jobs) {
		t.Fatalf("%s: %d job results for %d jobs", label, len(res.Jobs), len(jobs))
	}
	var totalWork float64
	byID := map[int]rms.Job{}
	for _, j := range jobs {
		byID[j.ID] = j
		totalWork += j.Work
	}
	for _, jr := range res.Jobs {
		j := byID[jr.ID]
		maxProcs := j.MaxProcs
		if !j.Malleable || maxProcs < j.Procs {
			maxProcs = j.Procs
		}
		if minEnd := j.Arrival + j.Work/float64(maxProcs); jr.End < minEnd-1e-6 {
			t.Fatalf("%s: job %d finished at %g, before physical minimum %g", label, jr.ID, jr.End, minEnd)
		}
		if jr.Start < j.Arrival-1e-9 {
			t.Fatalf("%s: job %d started %g before arrival %g", label, jr.ID, jr.Start, j.Arrival)
		}
		if !j.Malleable && jr.Reconfigs != 0 {
			t.Fatalf("%s: rigid job %d reconfigured %d times", label, jr.ID, jr.Reconfigs)
		}
		if jr.Slowdown < 1 {
			t.Fatalf("%s: job %d slowdown %g < 1", label, jr.ID, jr.Slowdown)
		}
	}
	if d := math.Abs(res.UsedCoreSeconds - totalWork); d > 1e-6*totalWork {
		t.Fatalf("%s: used %g core-seconds, submitted %g", label, res.UsedCoreSeconds, totalWork)
	}
}

// The scheduler invariants hold over every generator × policy combination.
func TestSchedulerInvariants(t *testing.T) {
	cl := testCluster()
	total := cl.Nodes * cl.CoresPerNode
	for _, kind := range GenKinds {
		jobs, err := Generate(GenSpec{Kind: kind, Seed: 1, Jobs: 300, Cores: total, Load: 1.0, MalleableFrac: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range Policies() {
			res := runPolicy(t, kind, pol, 0.6)
			checkInvariants(t, string(kind)+"/"+pol.Name(), jobs, res, total)
		}
	}
}

// A long fully malleable bursty trace completes under every policy. The
// stall ceiling counts popped instants, not the duplicate wake-ups merged
// into them: greedy arms millions of duplicates on this trace while
// running only tens of thousands of passes.
func TestLongTraceCompletes(t *testing.T) {
	cl := testCluster()
	total := cl.Nodes * cl.CoresPerNode
	jobs, err := Generate(GenSpec{Kind: GenBursty, Seed: 1, Jobs: 4800, Cores: total, Load: 1.0, MalleableFrac: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range Policies() {
		res, err := Run(jobs, Params{Cluster: cl, Cost: testCost(), Policy: pol})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		checkInvariants(t, "bursty/j4800/"+pol.Name(), jobs, res, total)
	}
}

// A job whose completion estimate rounds to its own instant (1e17 + 1 ==
// 1e17 in float64) never progresses and re-arms the instant it is at on
// every pass. The stall ceiling must still end the run with an error —
// one cheap pop per pass, so it returns in milliseconds — rather than
// spin forever on the folded instant.
func TestRunStallsOnSelfRearmingWake(t *testing.T) {
	jobs := []rms.Job{{ID: 0, Arrival: 1e17, Work: 1, Procs: 1}}
	_, err := Run(jobs, Params{Cluster: testCluster(), Policy: RigidPolicy{}})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("self-rearming wake-up: got %v, want a stall error", err)
	}
}

// Duplicate wake-ups are folded: the event loop pops each distinct
// instant once, so on the perfbench-sized traces the popped entries stay
// within a small multiple of the job count (without folding, greedy pops
// over a thousand entries per job on the bursty trace).
func TestDuplicateWakeupsFolded(t *testing.T) {
	cl := testCluster()
	total := cl.Nodes * cl.CoresPerNode
	const n = 600
	for _, kind := range GenKinds {
		jobs, err := Generate(GenSpec{Kind: kind, Seed: 1, Jobs: n, Cores: total, Load: 1.0, MalleableFrac: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range Policies() {
			e, err := newEngine(jobs, Params{Cluster: cl, Cost: testCost(), Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.run(); err != nil {
				t.Fatalf("%s/%s: %v", kind, pol.Name(), err)
			}
			t.Logf("%s/%s: %d pops (%.2f per job)", kind, pol.Name(), e.pops, float64(e.pops)/n)
			if e.pops > 10*n {
				t.Fatalf("%s/%s: popped %d wake-ups for %d jobs, want <= %d", kind, pol.Name(), e.pops, n, 10*n)
			}
		}
	}
}

// Under the rigid policy nothing ever reconfigures, malleable or not.
func TestRigidPolicyNeverReconfigures(t *testing.T) {
	res := runPolicy(t, GenBursty, RigidPolicy{}, 1.0)
	if res.Reconfigs != 0 || res.ReconfigSeconds != 0 {
		t.Fatalf("rigid policy reconfigured %d times (%.3fs)", res.Reconfigs, res.ReconfigSeconds)
	}
}

// The tentpole claim: on the fully malleable bursty trace every malleable
// policy beats the rigid-only baseline on makespan. Fraction 1.0 makes the
// comparison clean — identical jobs, the policy is the only variable (the
// rigid policy ignores malleability, so it IS the no-malleability
// baseline) — and keeps the critical-path tail job malleable; at lower
// fractions a single long rigid job can pin the makespan for everyone.
func TestMalleablePoliciesBeatRigidOnBurstyTrace(t *testing.T) {
	rigid := runPolicy(t, GenBursty, RigidPolicy{}, 1.0)
	for _, pol := range Policies()[1:] {
		mal := runPolicy(t, GenBursty, pol, 1.0)
		if mal.Makespan >= rigid.Makespan {
			t.Fatalf("%s makespan %g not below rigid %g", pol.Name(), mal.Makespan, rigid.Makespan)
		}
	}
}

// The engine is deterministic: the same trace and params give identical
// results on repeated runs.
func TestEngineDeterministic(t *testing.T) {
	a := runPolicy(t, GenDiurnal, GreedyPolicy{}, 0.5)
	b := runPolicy(t, GenDiurnal, GreedyPolicy{}, 0.5)
	if a.Makespan != b.Makespan || a.UsedCoreSeconds != b.UsedCoreSeconds ||
		a.Reconfigs != b.Reconfigs || a.MeanSlowdown != b.MeanSlowdown {
		t.Fatalf("two identical runs disagree: %+v vs %+v", a, b)
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatalf("job %d differs across identical runs", i)
		}
	}
}

// Attaching a telemetry stream must not change the result, and the stream
// must carry the workload histograms.
func TestTelemetryIsPassive(t *testing.T) {
	cl := testCluster()
	jobs, err := Generate(GenSpec{Kind: GenPoisson, Seed: 3, Jobs: 120, Cores: cl.Nodes * cl.CoresPerNode,
		Load: 1.1, MalleableFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := Run(jobs, Params{Cluster: cl, Cost: testCost(), Policy: GreedyPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	stream := obs.NewStream()
	observed, err := Run(jobs, Params{Cluster: cl, Cost: testCost(), Policy: GreedyPolicy{}, Telemetry: stream})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Makespan != observed.Makespan || bare.MeanSlowdown != observed.MeanSlowdown {
		t.Fatalf("telemetry changed the result: %+v vs %+v", bare, observed)
	}
	snap := stream.Snapshot()
	for _, name := range []string{"phase/job/wait", "phase/job/slowdown", "phase/queue/depth", "phase/cell/utilization"} {
		h, ok := snap.HistNamed(name)
		if !ok || h.Count == 0 {
			t.Fatalf("telemetry histogram %q missing or empty", name)
		}
	}
	if n := int(snap.Counter("observe/job/wait")); n != len(jobs) {
		t.Fatalf("observed %d job waits, want %d", n, len(jobs))
	}
	if snap.Counter("events/phase") == 0 {
		t.Fatal("no job/run phase events reached the stream")
	}
}

// FCFS without backfill: a blocked head job strictly serializes the queue
// behind it; backfill lets small jobs slip past without delaying the head.
func TestBackfillFillsHoles(t *testing.T) {
	cl := testCluster()
	cl.Nodes, cl.CoresPerNode = 1, 10
	// Job 0 occupies 6 cores for 100s. Job 1 (head, 8 cores) cannot start
	// until t=100. Job 2 (4 cores, 10s of work) fits in the hole and is
	// guaranteed to finish before the head's reservation.
	jobs := []rms.Job{
		{ID: 0, Arrival: 0, Work: 600, Procs: 6},
		{ID: 1, Arrival: 1, Work: 80, Procs: 8},
		{ID: 2, Arrival: 2, Work: 40, Procs: 4},
	}
	run := func(disable bool) Result {
		res, err := Run(jobs, Params{Cluster: cl, Policy: RigidPolicy{}, DisableBackfill: disable})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fcfs := run(true)
	easy := run(false)
	if fcfs.Jobs[2].Start < 100 {
		t.Fatalf("plain FCFS started the backfill candidate at %g, want >= 100", fcfs.Jobs[2].Start)
	}
	if easy.Jobs[2].Start != 2 {
		t.Fatalf("backfill started job 2 at %g, want 2", easy.Jobs[2].Start)
	}
	if easy.Jobs[1].Start > fcfs.Jobs[1].Start+1e-9 {
		t.Fatalf("backfill delayed the head: %g vs %g", easy.Jobs[1].Start, fcfs.Jobs[1].Start)
	}
}

// A malleable job under greedy expands into the idle machine and finishes
// ahead of its rigid twin.
func TestGreedyExpandsIntoIdleCluster(t *testing.T) {
	cl := testCluster()
	job := rms.Job{ID: 0, Arrival: 0, Work: 16000, Procs: 40, MaxProcs: 160, Malleable: true, DataBytes: 1 << 30}
	mal, err := Run([]rms.Job{job}, Params{Cluster: cl, Cost: testCost(), Policy: GreedyPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	rigid, err := Run([]rms.Job{job}, Params{Cluster: cl, Cost: testCost(), Policy: RigidPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	if mal.Makespan >= rigid.Makespan {
		t.Fatalf("greedy makespan %g not below rigid %g", mal.Makespan, rigid.Makespan)
	}
	// Launch at full width is free: the job starts at its minimum and
	// expands in the same instant without a priced reconfiguration.
	if mal.Jobs[0].Reconfigs != 0 {
		t.Fatalf("initial expansion charged as %d reconfigurations", mal.Jobs[0].Reconfigs)
	}
}

// Hand-checked scenarios on one small node, with exact job lifetimes.
// A nil cost makes reconfigurations free; fixed2 freezes a job for 2 s
// per allocation change.
func TestRunCases(t *testing.T) {
	fixed2 := func(ns, nt int, bytes int64) float64 { return 2 }
	type want struct {
		id                 int
		start, end, paused float64
		reconfigs          int
	}
	cases := []struct {
		name     string
		cores    int
		cost     rms.CostModel
		jobs     []rms.Job
		makespan float64
		want     []want
	}{
		{
			// 1000 core-seconds on 10 cores = 100 s.
			name: "SingleRigidJob", cores: 100,
			jobs:     []rms.Job{{ID: 1, Work: 1000, Procs: 10}},
			makespan: 100,
			want:     []want{{id: 1, start: 0, end: 100}},
		},
		{
			// Expands immediately to 100 cores: 10 s.
			name: "SingleMalleableJobExpandsToFillCluster", cores: 100,
			jobs:     []rms.Job{{ID: 1, Work: 1000, Procs: 10, MaxProcs: 100, Malleable: true}},
			makespan: 10,
			want:     []want{{id: 1, start: 0, end: 10}},
		},
		{
			// Serialized: 10 s each.
			name: "TwoRigidJobsQueue", cores: 10,
			jobs: []rms.Job{
				{ID: 1, Work: 100, Procs: 10},
				{ID: 2, Work: 100, Procs: 10},
			},
			makespan: 20,
			want:     []want{{id: 1, start: 0, end: 10}, {id: 2, start: 10, end: 20}},
		},
		{
			// Job 1 runs at 20 cores for 5 s (100 done), shrinks to 10
			// while job 2 runs (50 more by t=10), then expands back to 20
			// and finishes the remaining 50 in 2.5 s.
			name: "MalleableShrinksForArrival", cores: 20,
			jobs: []rms.Job{
				{ID: 1, Work: 200, Procs: 10, MaxProcs: 20, Malleable: true},
				{ID: 2, Arrival: 5, Work: 50, Procs: 10},
			},
			makespan: 12.5,
			want: []want{
				{id: 1, start: 0, end: 12.5, reconfigs: 2},
				{id: 2, start: 5, end: 10},
			},
		},
		{
			// The job launches directly at 20 cores: a priced cost, but no
			// reconfiguration happens.
			name: "InitialLaunchIsNotAReconfiguration", cores: 20, cost: fixed2,
			jobs:     []rms.Job{{ID: 1, Work: 200, Procs: 10, MaxProcs: 20, Malleable: true}},
			makespan: 10,
			want:     []want{{id: 1, start: 0, end: 10}},
		},
		{
			// Job 1: 20 cores on [0,4] (80 done); shrink pause [4,6]; 10
			// cores on [6,9] (30 more) while job 2 finishes at t=9; expand
			// pause [9,11]; the remaining 90 at 20 cores end at 15.5.
			name: "ReconfigurationCostDelaysJob", cores: 20, cost: fixed2,
			jobs: []rms.Job{
				{ID: 1, Work: 200, Procs: 10, MaxProcs: 20, Malleable: true},
				{ID: 2, Arrival: 4, Work: 50, Procs: 10},
			},
			makespan: 15.5,
			want: []want{
				{id: 1, start: 0, end: 15.5, paused: 4, reconfigs: 2},
				{id: 2, start: 4, end: 9},
			},
		},
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-6 }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl := cluster.Config{Nodes: 1, CoresPerNode: c.cores}
			res, err := Run(c.jobs, Params{Cluster: cl, Cost: c.cost, Policy: GreedyPolicy{}})
			if err != nil {
				t.Fatal(err)
			}
			if !near(res.Makespan, c.makespan) {
				t.Fatalf("makespan %g, want %g", res.Makespan, c.makespan)
			}
			for i, w := range c.want {
				j := res.Jobs[i]
				if j.ID != w.id || !near(j.Start, w.start) || !near(j.End, w.end) ||
					!near(j.ReconfigSeconds, w.paused) || j.Reconfigs != w.reconfigs {
					t.Fatalf("job %d: %+v, want start %g end %g, %d reconfigurations (%gs paused)",
						w.id, j, w.start, w.end, w.reconfigs, w.paused)
				}
			}
		})
	}
}

// Property: on arbitrary small job mixes and clusters the scheduler
// invariants hold under every policy.
func TestPropertySchedulerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cores := 32 + rng.Intn(128)
		n := 1 + rng.Intn(8)
		jobs := make([]rms.Job, n)
		for i := range jobs {
			procs := 1 + rng.Intn(cores)
			jobs[i] = rms.Job{
				ID:        i,
				Arrival:   rng.Float64() * 50,
				Work:      10 + rng.Float64()*500,
				Procs:     procs,
				MaxProcs:  procs + rng.Intn(cores),
				Malleable: rng.Intn(2) == 0,
				DataBytes: int64(rng.Intn(1 << 30)),
			}
		}
		cl := cluster.Config{Nodes: 1, CoresPerNode: cores}
		for _, pol := range Policies() {
			res, err := Run(jobs, Params{Cluster: cl, Cost: rms.PaperCostModel(10e-3, 5e-3, 1e9, 20), Policy: pol})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, pol.Name(), err)
			}
			checkInvariants(t, fmt.Sprintf("seed %d %s", seed, pol.Name()), jobs, res, cores)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding work never shortens the makespan.
func TestPropertyMakespanMonotoneInWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func(extra float64) float64 {
			jobs := make([]rms.Job, 4)
			for i := range jobs {
				jobs[i] = rms.Job{
					ID: i, Arrival: float64(i) * 3,
					Work:  100 + extra,
					Procs: 16, MaxProcs: 64,
					Malleable: i%2 == 0,
				}
			}
			res, err := Run(jobs, Params{Cluster: cluster.Config{Nodes: 1, CoresPerNode: 64}, Policy: GreedyPolicy{}})
			if err != nil {
				t.Fatal(err)
			}
			return res.Makespan
		}
		return build(50+rng.Float64()*100) >= build(0)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Run rejects invalid inputs with typed errors instead of NaN results.
func TestRunRejectsBadInput(t *testing.T) {
	cl := testCluster()
	if _, err := Run(nil, Params{Cluster: cl}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := Run(nil, Params{Policy: RigidPolicy{}}); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := Run([]rms.Job{{ID: 0, Work: -1, Procs: 1}},
		Params{Cluster: cl, Policy: RigidPolicy{}}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

// BenchmarkSchedule times one Run of an n-job fully malleable bursty trace
// under the greedy policy, the scheduler's costliest shape; the time is
// per Run.
func BenchmarkSchedule(b *testing.B) {
	cl := testCluster()
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			jobs, err := Generate(GenSpec{Kind: GenBursty, Seed: 1, Jobs: n,
				Cores: cl.Nodes * cl.CoresPerNode, Load: 1.0, MalleableFrac: 1.0})
			if err != nil {
				b.Fatal(err)
			}
			p := Params{Cluster: cl, Cost: testCost(), Policy: GreedyPolicy{}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(jobs, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
