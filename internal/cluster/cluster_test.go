package cluster

import (
	"math"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/sim/ps"
)

func TestDefaultMatchesPaperTestbed(t *testing.T) {
	cfg := Default(netmodel.Ethernet10G())
	if cfg.Nodes != 8 || cfg.CoresPerNode != 20 {
		t.Fatalf("Default = %d nodes x %d cores, want 8 x 20", cfg.Nodes, cfg.CoresPerNode)
	}
}

func TestNodeOfBlockPlacement(t *testing.T) {
	m := New(sim.NewKernel(), Default(netmodel.Ethernet10G()))
	cases := []struct{ rank, node int }{
		{0, 0}, {19, 0}, {20, 1}, {39, 1}, {159, 7}, {100, 5},
	}
	for _, c := range cases {
		if got := m.NodeOf(c.rank); got != c.node {
			t.Errorf("NodeOf(%d) = %d, want %d", c.rank, got, c.node)
		}
	}
}

func TestSpawnCostScalesWithCount(t *testing.T) {
	m := New(sim.NewKernel(), Default(netmodel.Ethernet10G()))
	if m.SpawnCost(0) != 0 {
		t.Fatalf("SpawnCost(0) = %g, want 0", m.SpawnCost(0))
	}
	c1, c160 := m.SpawnCost(1), m.SpawnCost(160)
	if c160 <= c1 {
		t.Fatalf("SpawnCost(160)=%g not above SpawnCost(1)=%g", c160, c1)
	}
	// Spawning 160 processes must cost >0.5s so Merge's savings are in the
	// >1s regime the paper reports.
	if c160 < 0.5 {
		t.Fatalf("SpawnCost(160) = %g, want >= 0.5s", c160)
	}
}

func TestNoiseDisabledReturnsOne(t *testing.T) {
	m := New(sim.NewKernel(), Default(netmodel.Ethernet10G()))
	for i := 0; i < 10; i++ {
		if m.Noise() != 1 {
			t.Fatal("Noise() != 1 with NoiseSigma = 0")
		}
	}
}

func TestNoiseSeededDeterministic(t *testing.T) {
	cfg := Default(netmodel.Ethernet10G())
	cfg.NoiseSigma = 0.05
	cfg.Seed = 42
	m1 := New(sim.NewKernel(), cfg)
	m2 := New(sim.NewKernel(), cfg)
	for i := 0; i < 50; i++ {
		a, b := m1.Noise(), m2.Noise()
		if a != b {
			t.Fatalf("draw %d: %g != %g with equal seeds", i, a, b)
		}
		if a <= 0 {
			t.Fatalf("Noise() = %g, want positive", a)
		}
		if math.Abs(a-1) > 0.5 {
			t.Fatalf("Noise() = %g, implausibly far from 1 at sigma=0.05", a)
		}
	}
}

func TestNoiseDiffersAcrossSeeds(t *testing.T) {
	cfg := Default(netmodel.Ethernet10G())
	cfg.NoiseSigma = 0.05
	cfg.Seed = 1
	m1 := New(sim.NewKernel(), cfg)
	cfg.Seed = 2
	m2 := New(sim.NewKernel(), cfg)
	same := true
	for i := 0; i < 10; i++ {
		if m1.Noise() != m2.Noise() {
			same = false
		}
	}
	if same {
		t.Fatal("noise streams identical across different seeds")
	}
}

func TestCPUPerNode(t *testing.T) {
	m := New(sim.NewKernel(), Default(netmodel.Ethernet10G()))
	for n := 0; n < 8; n++ {
		cpu := m.CPU(n)
		if cpu.Capacity() != 20 {
			t.Fatalf("node %d capacity = %g, want 20", n, cpu.Capacity())
		}
	}
	if m.CPU(0) == m.CPU(1) {
		t.Fatal("nodes share a CPU resource")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 nodes did not panic")
		}
	}()
	New(sim.NewKernel(), Config{Nodes: 0, CoresPerNode: 20, Net: netmodel.Ethernet10G()})
}

func TestFilesystemResource(t *testing.T) {
	cfg := Default(netmodel.Ethernet10G())
	m := New(sim.NewKernel(), cfg)
	fs := m.FS()
	if fs == nil {
		t.Fatal("default config should provision a filesystem")
	}
	if fs.Capacity() != cfg.FSBandwidth {
		t.Fatalf("FS capacity = %g, want %g", fs.Capacity(), cfg.FSBandwidth)
	}
	if m.FSLatency() != cfg.FSLatency {
		t.Fatalf("FSLatency = %g, want %g", m.FSLatency(), cfg.FSLatency)
	}
}

func TestFilesystemDisabled(t *testing.T) {
	cfg := Default(netmodel.Ethernet10G())
	cfg.FSBandwidth = 0
	m := New(sim.NewKernel(), cfg)
	if m.FS() != nil {
		t.Fatal("FSBandwidth=0 should disable the filesystem")
	}
}

func TestFilesystemSharesBandwidth(t *testing.T) {
	cfg := Default(netmodel.Ethernet10G())
	cfg.FSBandwidth = 1e9
	cfg.FSPerStream = 1e9
	k := sim.NewKernel()
	m := New(k, cfg)
	var done []float64
	for i := 0; i < 4; i++ {
		k.Spawn("writer", func(p *sim.Proc) {
			var w ps.Waiter
			m.FS().Use(&w, p, 1e9) // 1 GB each
			done = append(done, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Four concurrent 1 GB streams over 1 GB/s aggregate: all finish at 4 s.
	for _, d := range done {
		if math.Abs(d-4) > 1e-6 {
			t.Fatalf("writer finished at %g, want 4 under sharing", d)
		}
	}
}

func TestAccessors(t *testing.T) {
	k := sim.NewKernel()
	cfg := Default(netmodel.Ethernet10G())
	m := New(k, cfg)
	if m.Kernel() != k {
		t.Fatal("Kernel accessor broken")
	}
	if m.Config().Nodes != cfg.Nodes {
		t.Fatal("Config accessor broken")
	}
	if m.Fabric() == nil || m.Fabric().Params() != cfg.Net {
		t.Fatal("Fabric accessor broken")
	}
}

func TestNodeOfWrapsBeyondMachine(t *testing.T) {
	// Ranks beyond the physical node count wrap (deliberate
	// oversubscription of the whole machine).
	m := New(sim.NewKernel(), Default(netmodel.Ethernet10G()))
	if got := m.NodeOf(165); got != 0 {
		t.Fatalf("NodeOf(165) = %d, want wrap to 0", got)
	}
	if got := m.NodeOf(200); got != 2 {
		t.Fatalf("NodeOf(200) = %d, want 2", got)
	}
}
