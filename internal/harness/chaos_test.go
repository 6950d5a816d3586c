package harness

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// TestChaosCampaignSmoke throws a small seeded campaign at all three
// communication methods: with the recovery ladder in place every generated
// plan (crashes of pure sources after protect — under RMA those are exactly
// the window owners — windowed drops/delays, spawn failures, link
// degradation) must be masked. A failing plan is a ladder bug; the shrunk
// reproducer is surfaced to make it actionable.
func TestChaosCampaignSmoke(t *testing.T) {
	s := quickSetup()
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.P2P, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.RMA, Overlap: core.Sync},
	}
	outcomes, err := s.RunChaosCampaign(Pair{NS: 8, NT: 4}, configs,
		ChaosParams{Seed: 7, Plans: 2, MaxFaults: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 6 {
		t.Fatalf("outcomes = %d, want 6", len(outcomes))
	}
	for _, o := range outcomes {
		if len(o.Plan.Actions) == 0 {
			t.Errorf("%s plan %d: empty plan", o.Config, o.PlanIndex)
		}
		if !o.Survived {
			t.Errorf("%s plan %d died: %s\nminimal reproducer (%d actions after %d runs): %+v",
				o.Config, o.PlanIndex, o.Err,
				len(o.MinimalPlan.Actions), o.ShrinkRuns, o.MinimalPlan.Actions)
		}
	}
}

// TestChaosCampaignDeterminism pins the campaign's reproducibility: the
// same master seed must generate byte-identical plans at any worker count.
func TestChaosCampaignDeterminism(t *testing.T) {
	s := quickSetup()
	configs := []core.Config{
		{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync},
		// The resilient wave schedules under a multi-wave ceiling.
		{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync, MemCeiling: 8 << 10},
		{Spawn: core.Merge, Comm: core.RMA, Overlap: core.Sync, MemCeiling: 8 << 10},
	}
	cp := ChaosParams{Seed: 42, Plans: 2, MaxFaults: 2}
	run := func(workers int) []ChaosOutcome {
		s.Workers = workers
		out, err := s.RunChaosCampaign(Pair{NS: 8, NT: 4}, configs, cp, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(1), run(4)
	for i := range a {
		am, _ := (&fault.PlanFile{Plan: a[i].Plan}).Marshal()
		bm, _ := (&fault.PlanFile{Plan: b[i].Plan}).Marshal()
		if !bytes.Equal(am, bm) {
			t.Errorf("plan %d differs between -j 1 and -j 4:\n%s\nvs\n%s", i, am, bm)
		}
		if a[i].Survived != b[i].Survived {
			t.Errorf("plan %d: survival %v vs %v", i, a[i].Survived, b[i].Survived)
		}
	}
}

// TestChaosShrinkDeterminism pins the shrink guarantee: shrinking the same
// failing plan twice yields byte-identical minimal plans, and the emitted
// plan file replays to the same failure. The plan is built to fail: a crash
// inside the protect window is unrecoverable by construction (the victim's
// checkpoint is incomplete), and the two benign riders must shrink away.
func TestChaosShrinkDeterminism(t *testing.T) {
	s := quickSetup()
	p := Pair{NS: 8, NT: 4}
	cfg := core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync}
	fp := FaultParams{}

	win := &trace.PhaseWindow{Phase: trace.PhaseProtect}
	if _, err := s.runWithPlan(p, cfg, 0, fp, fault.Plan{}, nil, win); err != nil {
		t.Fatalf("probe: %v", err)
	}
	lo, hi, ok := win.Window()
	if !ok || hi <= lo {
		t.Fatalf("probe recorded no %s window", trace.PhaseProtect)
	}

	plan := fault.Plan{Actions: []fault.Action{
		{Kind: fault.DelayMsg, Src: -1, Dst: -1, Tag: -1, Count: 1, Delay: 0.05, After: hi},
		{Kind: fault.CrashRank, GID: p.NS - 1, At: lo + 0.5*(hi-lo)},
		{Kind: fault.DegradeLink, Node: 0, Factor: 0.8, At: hi},
	}}
	ok1, msg := s.RunPlan(p, cfg, 0, fp, plan)
	if ok1 {
		t.Fatal("crash-mid-protect plan unexpectedly survived")
	}

	min1, err1, runs1 := s.shrinkPlan(p, cfg, 0, fp, plan, msg)
	min2, err2, runs2 := s.shrinkPlan(p, cfg, 0, fp, plan, msg)
	b1, _ := (&fault.PlanFile{Plan: min1, Failure: err1}).Marshal()
	b2, _ := (&fault.PlanFile{Plan: min2, Failure: err2}).Marshal()
	if !bytes.Equal(b1, b2) {
		t.Fatalf("shrink is not deterministic:\n%s\nvs\n%s", b1, b2)
	}
	if runs1 != runs2 {
		t.Errorf("shrink replay counts differ: %d vs %d", runs1, runs2)
	}
	if len(min1.Actions) != 1 || min1.Actions[0].Kind != fault.CrashRank {
		t.Errorf("minimal plan = %+v, want the lone crash action", min1.Actions)
	}

	// The emitted plan file must replay to the recorded failure.
	path := filepath.Join(t.TempDir(), "minimal.json")
	pf := &fault.PlanFile{
		Config: cfg.String(), NS: p.NS, NT: p.NT, Rep: 0,
		Failure: err1, Plan: min1,
	}
	if err := fault.WritePlanFile(path, pf); err != nil {
		t.Fatal(err)
	}
	got, err := fault.LoadPlanFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ok2, replayMsg := s.RunPlan(Pair{NS: got.NS, NT: got.NT}, cfg, got.Rep, fp, got.Plan)
	if ok2 {
		t.Fatal("replayed minimal plan unexpectedly survived")
	}
	if replayMsg != got.Failure {
		t.Errorf("replay error %q, recorded %q", replayMsg, got.Failure)
	}
}
