package synthapp

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// paperWorld builds the paper's 8x20-core testbed.
func paperWorld(net netmodel.Params, seed int64) *mpi.World {
	k := sim.NewKernel()
	cfg := cluster.Default(net)
	cfg.Seed = seed
	return mpi.NewWorld(cluster.New(k, cfg), mpi.DefaultOptions())
}

// smallConfig is a fast emulation for unit tests.
func smallConfig() *Config {
	return &Config{
		Name:              "unit",
		TotalIterations:   60,
		ReconfigIteration: 20,
		Stages: []Stage{
			{Type: StageCompute, Work: 0.02},
			{Type: StageAllgatherv, Bytes: 1 << 20},
			{Type: StageAllreduce, Bytes: 8},
		},
		Data: []DataSpec{
			{Name: "A", Kind: SparseData, Elements: 10000, ElemSize: 12, Constant: true, NnzPerRow: 50},
			{Name: "x", Kind: DenseData, Elements: 10000, ElemSize: 8},
		},
		SampleIterations: 2,
		CheckpointCost:   50e-6,
	}
}

func TestRunAllConfigsCompletes(t *testing.T) {
	for _, mal := range core.AllConfigs() {
		for _, pair := range []struct{ ns, nt int }{{4, 8}, {8, 4}} {
			name := fmt.Sprintf("%s/%dto%d", mal, pair.ns, pair.nt)
			t.Run(name, func(t *testing.T) {
				w := paperWorld(netmodel.Ethernet10G(), 1)
				res, err := Run(w, RunParams{
					Cfg: smallConfig(), Malleability: mal,
					NS: pair.ns, NT: pair.nt,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalTime <= 0 {
					t.Fatal("TotalTime not recorded")
				}
				if res.ReconfigEnd <= res.ReconfigStart {
					t.Fatalf("reconfig window [%g, %g] empty", res.ReconfigStart, res.ReconfigEnd)
				}
				if res.TotalTime < res.ReconfigEnd {
					t.Fatalf("TotalTime %g before ReconfigEnd %g", res.TotalTime, res.ReconfigEnd)
				}
				if mal.Asynchronous() && res.OverlappedIterations == 0 {
					t.Log("async run overlapped zero iterations (fast transfer)")
				}
				if !mal.Asynchronous() && res.OverlappedIterations != 0 {
					t.Fatalf("sync run overlapped %d iterations", res.OverlappedIterations)
				}
			})
		}
	}
}

func TestRunWithoutMalleability(t *testing.T) {
	w := paperWorld(netmodel.Ethernet10G(), 1)
	cfg := smallConfig()
	cfg.ReconfigIteration = -1
	res, err := Run(w, RunParams{Cfg: cfg, Malleability: core.Config{}, NS: 4, NT: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReconfigStart != 0 || res.ReconfigEnd != 0 {
		t.Fatalf("no-malleability run has reconfig window [%g, %g]", res.ReconfigStart, res.ReconfigEnd)
	}
	if res.TotalTime <= 0 {
		t.Fatal("TotalTime not recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	mal := core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.NonBlocking}
	run := func() Result {
		w := paperWorld(netmodel.Ethernet10G(), 5)
		res, err := Run(w, RunParams{Cfg: smallConfig(), Malleability: mal, NS: 6, NT: 10})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

func TestSeedChangesTimingsWithNoise(t *testing.T) {
	mal := core.Config{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync}
	run := func(seed int64) Result {
		k := sim.NewKernel()
		ccfg := cluster.Default(netmodel.Ethernet10G())
		ccfg.Seed = seed
		ccfg.NoiseSigma = 0.03
		w := mpi.NewWorld(cluster.New(k, ccfg), mpi.DefaultOptions())
		res, err := Run(w, RunParams{Cfg: smallConfig(), Malleability: mal, NS: 4, NT: 8})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if reflect.DeepEqual(run(1), run(2)) {
		t.Fatal("different seeds produced identical results with noise enabled")
	}
}

func TestMoreProcessesIterateFaster(t *testing.T) {
	cfg := smallConfig()
	cfg.ReconfigIteration = -1
	iterTime := func(p int) float64 {
		w := paperWorld(netmodel.Ethernet10G(), 1)
		res, err := Run(w, RunParams{Cfg: cfg, Malleability: core.Config{}, NS: p, NT: p})
		if err != nil {
			t.Fatal(err)
		}
		return res.IterTimeBefore
	}
	t4, t16 := iterTime(4), iterTime(16)
	if t16 >= t4 {
		t.Fatalf("iteration time did not drop with more processes: %g @4 vs %g @16", t4, t16)
	}
}

func TestCGConfigMatchesPaperShape(t *testing.T) {
	cfg := CGConfig(0.035, 160)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.TotalIterations != 1000 || cfg.ReconfigIteration != 500 {
		t.Fatalf("iterations %d/%d, want 1000/500", cfg.TotalIterations, cfg.ReconfigIteration)
	}
	total, constFrac := cfg.TotalDataBytes()
	// Paper: ~3.947 GB total, 96.6% constant.
	if total < 3_800_000_000 || total > 4_400_000_000 {
		t.Fatalf("total data %d bytes, want ≈ 4.08e9", total)
	}
	if math.Abs(constFrac-0.966) > 0.02 {
		t.Fatalf("constant fraction %.3f, want ≈ 0.966", constFrac)
	}
	// Six stages: 3 compute, 2 allreduce, 1 allgatherv.
	var nc, nar, nag int
	for _, s := range cfg.Stages {
		switch s.Type {
		case StageCompute:
			nc++
		case StageAllreduce:
			nar++
		case StageAllgatherv:
			nag++
		}
	}
	if nc != 3 || nar != 2 || nag != 1 {
		t.Fatalf("stage mix %d/%d/%d, want 3/2/1", nc, nar, nag)
	}
	if cfg.Stages[1].Bytes != CGRows*8 {
		t.Fatalf("allgatherv bytes = %d, want %d (33 MB vector)", cfg.Stages[1].Bytes, CGRows*8)
	}
}

func TestConfigFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := smallConfig()
	if err := cfg.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != cfg.Name || got.TotalIterations != cfg.TotalIterations ||
		len(got.Stages) != len(cfg.Stages) || len(got.Data) != len(cfg.Data) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []*Config{
		{TotalIterations: 0},
		{TotalIterations: 10, ReconfigIteration: 20, Stages: []Stage{{Type: StageCompute}}},
		{TotalIterations: 10, ReconfigIteration: -1},
		{TotalIterations: 10, ReconfigIteration: -1, Stages: []Stage{{Type: "bogus"}}},
		{TotalIterations: 10, ReconfigIteration: -1, Stages: []Stage{{Type: StageCompute}},
			Data: []DataSpec{{Name: "", Kind: DenseData, ElemSize: 8}}},
		{TotalIterations: 10, ReconfigIteration: -1, Stages: []Stage{{Type: StageCompute}},
			Data: []DataSpec{{Name: "m", Kind: SparseData, Elements: 5, ElemSize: 8}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d validated unexpectedly", i)
		}
	}
	if err := smallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBcastAndBarrierStages(t *testing.T) {
	cfg := &Config{
		Name:              "bcast-barrier",
		TotalIterations:   10,
		ReconfigIteration: -1,
		Stages: []Stage{
			{Type: StageBcast, Bytes: 1 << 18},
			{Type: StageBarrier},
			{Type: StageCompute, Work: 0.01},
		},
		SampleIterations: 2,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	w := paperWorld(netmodel.Ethernet10G(), 1)
	res, err := Run(w, RunParams{Cfg: cfg, Malleability: core.Config{}, NS: 8, NT: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || res.IterTimeBefore <= 0 {
		t.Fatalf("run produced no timing: %+v", res)
	}
}

// TestCeilLog2MatchesFloatForm checks the integer ceilLog2 against the
// float form it replaced, math.Ceil(math.Log2(p)), for every p up to 2^20:
// the collective stage counts, and so every simulated time, stay the same.
func TestCeilLog2MatchesFloatForm(t *testing.T) {
	for p := 1; p <= 1<<20; p++ {
		want := 0.0
		if p > 1 {
			want = math.Ceil(math.Log2(float64(p)))
		}
		if got := ceilLog2(p); got != want {
			t.Fatalf("ceilLog2(%d) = %g, want %g", p, got, want)
		}
	}
}
