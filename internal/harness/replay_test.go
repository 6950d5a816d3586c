package harness

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/trace"
)

// scanWindow is the full-log reference for trace.PhaseWindow: the
// [earliest start, latest end] of the phase's EvPhase spans, widened by
// the non-phase events tagged with the phase when the spans give no
// window with hi > lo.
func scanWindow(events []trace.Event, phase string) (lo, hi float64, ok bool) {
	grow := func(ev trace.Event) {
		if !ok || ev.Start < lo {
			lo = ev.Start
		}
		if !ok || ev.End > hi {
			hi = ev.End
		}
		ok = true
	}
	for _, ev := range events {
		if ev.Kind == trace.EvPhase && ev.Op == phase {
			grow(ev)
		}
	}
	if ok && hi > lo {
		return lo, hi, true
	}
	for _, ev := range events {
		if ev.Kind != trace.EvPhase && ev.Phase == phase {
			grow(ev)
		}
	}
	return lo, hi, ok
}

// recordedOutcome runs a plan with a full Recorder attached and reports it
// as RunPlan does.
func recordedOutcome(t *testing.T, s Setup, p Pair, cfg core.Config, plan fault.Plan) (bool, string) {
	t.Helper()
	rec := trace.NewRecorder()
	_, err := s.runWithPlan(p, cfg, 0, FaultParams{}, plan, rec, nil)
	if rec.Len() == 0 {
		t.Fatal("recorded run recorded no events")
	}
	if err != nil {
		msg, _, _ := strings.Cut(err.Error(), "\n")
		return false, msg
	}
	return true, ""
}

// reproducerFailure is the first line of the Merge RMAS reproducer's
// failure: ranks 6, 8 and 18 wait on application receives the drop
// removed. Closing that deadlock (ROADMAP) is meant to change it.
const reproducerFailure = "" +
	"sim: deadlock at t=38.973525 with 20 blocked processes: [rank0: waiting on signal mpi.fastbarrier.comm3" +
	" rank10: waiting on signal mpi.fastbarrier.comm3" +
	" rank11: waiting on signal mpi.fastbarrier.comm3" +
	" rank12: waiting on signal mpi.fastbarrier.comm3" +
	" rank13: waiting on signal mpi.fastbarrier.comm3" +
	" rank14: waiting on signal mpi.fastbarrier.comm3" +
	" rank15: waiting on signal mpi.fastbarrier.comm3" +
	" rank16: waiting on signal mpi.fastbarrier.comm3" +
	" rank17: waiting on signal mpi.fastbarrier.comm3" +
	" rank18: Waitall: 1 pending, next Irecv src=17 tag=3 comm=3" +
	" rank19: waiting on signal mpi.fastbarrier.comm3" +
	" rank1: waiting on signal mpi.fastbarrier.comm3" +
	" rank2: waiting on signal mpi.fastbarrier.comm3" +
	" rank3: waiting on signal mpi.fastbarrier.comm3" +
	" rank4: waiting on signal mpi.fastbarrier.comm3" +
	" rank5: waiting on signal mpi.fastbarrier.comm3" +
	" rank6: Waitall: 1 pending, next Irecv src=5 tag=3 comm=3" +
	" rank7: waiting on signal mpi.fastbarrier.comm3" +
	" rank8: Waitall: 1 pending, next Irecv src=7 tag=3 comm=3" +
	" rank9: waiting on signal mpi.fastbarrier.comm3]"

// TestUnrecordedReplayMatchesRecorded extends the contract that tracing
// does not change results to faulted resilient runs. RunPlan replays a
// plan with no Recorder; its outcome must equal that of the same run with
// a full Recorder attached, for the four seed-1 chaos plans of every
// resilient configuration at 40->20 and for the two-action Merge RMAS
// reproducer. The chaos probes stream the redist-var window; it must
// equal a scan of the probe's full log.
func TestUnrecordedReplayMatchesRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 182 resilient 40->20 reconfigurations")
	}
	s := DefaultSetup(netmodel.Ethernet10G())
	p := Pair{NS: 40, NT: 20}
	configs, err := FaultConfigs("all")
	if err != nil {
		t.Fatal(err)
	}
	var cp ChaosParams
	for cfgIdx, cfg := range configs {
		win := &trace.PhaseWindow{Phase: trace.PhaseRedistVar}
		if _, err := s.runWithPlan(p, cfg, 0, FaultParams{}, fault.Plan{}, nil, win); err != nil {
			t.Fatalf("%s probe: %v", cfg, err)
		}
		rec := trace.NewRecorder()
		if _, err := s.runWithPlan(p, cfg, 0, FaultParams{}, fault.Plan{}, rec, nil); err != nil {
			t.Fatalf("%s recorded probe: %v", cfg, err)
		}
		lo, hi, ok := win.Window()
		wlo, whi, wok := scanWindow(rec.Events(), trace.PhaseRedistVar)
		if lo != wlo || hi != whi || ok != wok {
			t.Fatalf("%s: streamed window [%v, %v] ok=%v, full-log scan [%v, %v] ok=%v",
				cfg, lo, hi, ok, wlo, whi, wok)
		}
		if !ok || hi <= lo {
			t.Fatalf("%s: probe recorded no %s window", cfg, trace.PhaseRedistVar)
		}
		for k := 0; k < cp.plans(); k++ {
			seed := subSeed(1, cfgIdx, k)
			plan := GenerateChaosPlan(rand.New(rand.NewSource(seed)), cp.maxFaults(), lo, hi,
				chaosVictims(cfg, p), s.Cluster.Nodes, cp.DetectLatency)
			plan.Seed = seed
			gotOK, gotMsg := s.RunPlan(p, cfg, 0, FaultParams{}, plan)
			wantOK, wantMsg := recordedOutcome(t, s, p, cfg, plan)
			if gotOK != wantOK || gotMsg != wantMsg {
				t.Errorf("%s plan %d: unrecorded (%v, %q), recorded (%v, %q)",
					cfg, k, gotOK, gotMsg, wantOK, wantMsg)
			}
		}
	}

	// The minimal reproducer of the one failing fault-chaos plan: a crash
	// of gid 27 and a wildcard drop of 3 messages of the resumed
	// application's traffic.
	cfg := core.Config{Spawn: core.Merge, Comm: core.RMA, Overlap: core.Sync}
	plan := fault.Plan{Seed: 5535494072803605967, Actions: []fault.Action{
		{Kind: fault.CrashRank, GID: 27, At: 38.86409227391948},
		{Kind: fault.DropMsg, Src: -1, Dst: -1, Tag: -1, Count: 3,
			After: 38.629654222404895, Before: 39.22859806385691},
	}}
	gotOK, gotMsg := s.RunPlan(p, cfg, 0, FaultParams{}, plan)
	wantOK, wantMsg := recordedOutcome(t, s, p, cfg, plan)
	if gotOK || wantOK {
		t.Fatalf("reproducer survived: unrecorded %v, recorded %v", gotOK, wantOK)
	}
	if gotMsg != wantMsg || gotMsg != reproducerFailure {
		t.Fatalf("reproducer failure differs:\nunrecorded %s\nrecorded   %s\nwant       %s",
			gotMsg, wantMsg, reproducerFailure)
	}
}
