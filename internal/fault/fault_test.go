package fault_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/synthapp"
	"repro/internal/trace"
)

func newWorld(seed int64) *mpi.World {
	k := sim.NewKernel()
	cl := cluster.Default(netmodel.Ethernet10G())
	cl.Seed = seed
	return mpi.NewWorld(cluster.New(k, cl), mpi.DefaultOptions())
}

func TestDropMsgVanishesOnTheWire(t *testing.T) {
	w := newWorld(1)
	inj := fault.NewInjector(w, fault.Plan{Actions: []fault.Action{
		{Kind: fault.DropMsg, Src: 0, Dst: 1, Tag: 7, Count: 1},
	}})
	inj.Arm()
	rec := trace.NewRecorder()
	w.SetSink(rec)
	w.Launch(2, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Send(comm, 1, 7, mpi.Virtual(100)) // dropped
			c.Send(comm, 1, 7, mpi.Virtual(200)) // arrives
		case 1:
			_, st := c.Recv(comm, 0, 7)
			if st.Size != 200 {
				t.Errorf("received %d bytes, want the second message (200): the drop leaked through", st.Size)
			}
		}
	})
	if err := w.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	if n := countFaults(rec.Events(), "drop"); n != 1 {
		t.Errorf("drop events = %d, want 1", n)
	}
}

func TestDelayMsgAddsLatency(t *testing.T) {
	const delay = 0.25
	w := newWorld(1)
	inj := fault.NewInjector(w, fault.Plan{Actions: []fault.Action{
		{Kind: fault.DelayMsg, Src: 0, Dst: 1, Tag: -1, Delay: delay},
	}})
	inj.Arm()
	w.Launch(2, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		switch comm.Rank(c) {
		case 0:
			c.Send(comm, 1, 5, mpi.Virtual(8))
		case 1:
			start := c.Now()
			c.Recv(comm, 0, 5)
			if got := c.Now() - start; got < delay {
				t.Errorf("receive completed after %.3fs, want >= %.3fs injected delay", got, delay)
			}
		}
	})
	if err := w.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFailSpawnRetries(t *testing.T) {
	w := newWorld(1)
	inj := fault.NewInjector(w, fault.Plan{Actions: []fault.Action{
		{Kind: fault.FailSpawn, Attempts: 2},
	}})
	inj.Arm()
	rec := trace.NewRecorder()
	w.SetSink(rec)
	w.Launch(2, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		c.Spawn(comm, 2, nil, func(child *mpi.Ctx, childWorld *mpi.Comm) {})
	})
	if err := w.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
	if n := countFaults(rec.Events(), "spawn-fail"); n != 2 {
		t.Errorf("spawn-fail events = %d, want 2", n)
	}
	failedSpans := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.EvSpawn && ev.Op == "Comm_spawn_failed" {
			failedSpans++
		}
	}
	if failedSpans != 2 {
		t.Errorf("Comm_spawn_failed spans = %d, want 2 (each failed attempt pays the spawn cost)", failedSpans)
	}
}

// TestSpawnRetryPolicy pins the fixed spawn retry policy: one "spawn-retry"
// event per failed attempt (Tag = attempt ordinal), and a backoff that
// starts at 0.02 s and doubles, paid on top of the failed attempts' spawn
// cost.
func TestSpawnRetryPolicy(t *testing.T) {
	run := func(fails int) (float64, []trace.Event) {
		w := newWorld(1)
		if fails > 0 {
			inj := fault.NewInjector(w, fault.Plan{Actions: []fault.Action{
				{Kind: fault.FailSpawn, Attempts: fails},
			}})
			inj.Arm()
		}
		rec := trace.NewRecorder()
		w.SetSink(rec)
		var elapsed float64
		w.Launch(2, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
			start := c.Now()
			c.Spawn(comm, 2, nil, func(child *mpi.Ctx, childWorld *mpi.Comm) {})
			if comm.Rank(c) == 0 {
				elapsed = c.Now() - start
			}
		})
		if err := w.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed, rec.Events()
	}
	clean, _ := run(0)
	elapsed, events := run(3)
	var tags []int
	failed := 0.0
	for _, ev := range events {
		switch {
		case ev.Kind == trace.EvFault && ev.Op == "spawn-retry":
			tags = append(tags, ev.Tag)
		case ev.Kind == trace.EvSpawn && ev.Op == "Comm_spawn_failed":
			failed += ev.End - ev.Start
		}
	}
	if fmt.Sprint(tags) != "[1 2 3]" {
		t.Errorf("spawn-retry Tags = %v, want [1 2 3]", tags)
	}
	const backoff = 0.02 + 0.04 + 0.08
	if got := elapsed - clean - failed; math.Abs(got-backoff) > 1e-12 {
		t.Errorf("backoff of 3 failures = %.6fs, want %.2fs", got, backoff)
	}
}

// TestProbeVersionSemantics pins the detector's contract: Version moves only
// on new detections. The recovery protocol probes on every fruitless
// deadline expiry, so a spurious bump would read as a phantom failure and
// abort healthy epochs.
func TestProbeVersionSemantics(t *testing.T) {
	w := newWorld(1)
	inj := fault.NewInjector(w, fault.Plan{
		DetectLatency: 100, // passive detection far beyond the test horizon
		Actions: []fault.Action{
			{Kind: fault.CrashRank, GID: 1, At: 0.1},
		},
	})
	inj.Arm()
	det := inj.Detector()
	w.Launch(2, nil, func(c *mpi.Ctx, comm *mpi.Comm) {
		if comm.Rank(c) != 0 {
			c.Sleep(10) // victim: killed at 0.1
			return
		}
		det.Probe()
		if v := det.Version(); v != 0 {
			t.Errorf("Probe with nothing pending bumped Version to %d", v)
		}
		c.Sleep(0.2) // past the crash, well before the passive latency
		if det.Failed(1) {
			t.Error("passive detection fired before its latency")
		}
		det.Probe()
		if !det.Failed(1) || det.Version() != 1 {
			t.Errorf("after probe: Failed(1)=%v Version=%d, want true/1", det.Failed(1), det.Version())
		}
		det.Probe()
		if v := det.Version(); v != 1 {
			t.Errorf("repeated Probe bumped Version to %d", v)
		}
	})
	if err := w.Kernel().Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDegradeLinkSlowsTransfers(t *testing.T) {
	const size = 4 << 20 // rendezvous-sized, bandwidth-dominated
	run := func(actions []fault.Action) float64 {
		w := newWorld(1)
		inj := fault.NewInjector(w, fault.Plan{Actions: actions})
		inj.Arm()
		var took float64
		w.Launch(2, func(r int) int { return r }, func(c *mpi.Ctx, comm *mpi.Comm) {
			switch comm.Rank(c) {
			case 0:
				c.Sleep(0.01) // let the degradation timer fire first
				c.Send(comm, 1, 3, mpi.Virtual(size))
			case 1:
				start := c.Now()
				c.Recv(comm, 0, 3)
				took = c.Now() - start
			}
		})
		if err := w.Kernel().Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	base := run(nil)
	// The path is not purely NIC-limited (latency, per-flow caps), so a
	// 0.1x NIC does not slow the transfer a full 10x.
	slow := run([]fault.Action{{Kind: fault.DegradeLink, Node: 1, Factor: 0.1, At: 1e-3}})
	if slow < 2*base {
		t.Errorf("degraded transfer %.4fs vs clean %.4fs: want >= 2x slowdown from a 0.1x NIC", slow, base)
	}
}

func TestArmValidation(t *testing.T) {
	w := newWorld(1)
	inj := fault.NewInjector(w, fault.Plan{})
	inj.Arm()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Arm did not panic")
			}
		}()
		inj.Arm()
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DegradeLink with Factor 0 did not panic")
			}
		}()
		bad := fault.NewInjector(newWorld(1), fault.Plan{Actions: []fault.Action{
			{Kind: fault.DegradeLink, Node: 0, Factor: 0},
		}})
		bad.Arm()
	}()
}

func countFaults(events []trace.Event, op string) int {
	n := 0
	for _, ev := range events {
		if ev.Kind == trace.EvFault && ev.Op == op {
			n++
		}
	}
	return n
}

// quickAppCfg mirrors the harness's unit-test application: small data, few
// iterations.
func quickAppCfg() *synthapp.Config {
	return &synthapp.Config{
		Name:              "quick",
		TotalIterations:   40,
		ReconfigIteration: 15,
		Stages: []synthapp.Stage{
			{Type: synthapp.StageCompute, Work: 0.02},
			{Type: synthapp.StageAllgatherv, Bytes: 1 << 20},
			{Type: synthapp.StageAllreduce, Bytes: 8},
		},
		Data: []synthapp.DataSpec{
			{Name: "A", Kind: synthapp.SparseData, Elements: 20000, ElemSize: 12, Constant: true, NnzPerRow: 40},
			{Name: "x", Kind: synthapp.DenseData, Elements: 20000, ElemSize: 8},
		},
		SampleIterations: 2,
		CheckpointCost:   50e-6,
	}
}

// TestPlanDeterminism is the subsystem's reproducibility contract: the same
// seed and fault plan produce a byte-identical event log, across a P2P and
// a COL configuration, through a full crash-and-recover cycle.
func TestPlanDeterminism(t *testing.T) {
	cfgs := []core.Config{
		{Spawn: core.Baseline, Comm: core.P2P, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
	}
	appCfg := quickAppCfg()

	runOnce := func(mal core.Config, plan fault.Plan) []byte {
		t.Helper()
		w := newWorld(1)
		inj := fault.NewInjector(w, plan)
		inj.Arm()
		rec := trace.NewRecorder()
		_, err := synthapp.Run(w, synthapp.RunParams{
			Cfg: appCfg, Malleability: mal, NS: 8, NT: 4,
			Recorder:   rec,
			Resilience: &core.Resilience{Detector: inj.Detector()},
		})
		if err != nil {
			t.Fatalf("%s: %v", mal, err)
		}
		var buf bytes.Buffer
		if err := rec.WriteEvents(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, mal := range cfgs {
		// Locate the redistribution window with a fault-free probe, then
		// crash the last source inside it.
		probe := runOnce(mal, fault.Plan{Seed: 42})
		events, err := trace.ReadEvents(bytes.NewReader(probe))
		if err != nil {
			t.Fatal(err)
		}
		var lo, hi float64
		found := false
		for _, ev := range events {
			if ev.Kind == trace.EvPhase && ev.Op == trace.PhaseRedistVar {
				if !found || ev.Start < lo {
					lo = ev.Start
				}
				if !found || ev.End > hi {
					hi = ev.End
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no %s window in probe", mal, trace.PhaseRedistVar)
		}
		// The crash is the only action: a message-delay rule would shift the
		// whole timeline relative to the probe and move the crash out of the
		// redistribution window. Jitter still exercises the seeded rng.
		plan := fault.Plan{
			Seed:   42,
			Jitter: 1e-4,
			Actions: []fault.Action{
				{Kind: fault.CrashRank, GID: 7, At: (lo + hi) / 2},
			},
		}
		a := runOnce(mal, plan)
		b := runOnce(mal, plan)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: identical seed+plan produced different event logs (%d vs %d bytes)",
				mal, len(a), len(b))
		}
		got, err := trace.ReadEvents(bytes.NewReader(a))
		if err != nil {
			t.Fatal(err)
		}
		crashes, replans := 0, 0
		for _, ev := range got {
			if ev.Kind != trace.EvFault {
				continue
			}
			switch ev.Op {
			case "crash":
				crashes++
			case "replan":
				replans++
			}
		}
		if crashes != 1 || replans == 0 {
			t.Errorf("%s: crash=%d replan=%d, want the crash-and-recover cycle on record",
				mal, crashes, replans)
		}
	}
}
