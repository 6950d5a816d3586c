package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/synthapp"
	"repro/internal/trace"
	"repro/internal/trace/analyze"
)

// TestFaultCampaignSurvivesSourceCrash is the subsystem's acceptance
// criterion: killing one source rank mid-redistribution must complete (no
// deadlock) under every {Baseline, Merge} × {P2P, COL} synchronous
// configuration, with the recovery cost visible as its own critical-path
// bucket.
func TestFaultCampaignSurvivesSourceCrash(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	p := Pair{NS: 8, NT: 4} // shrink: the victim is a pure source under Merge too
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.P2P, Overlap: core.Sync},
		{Spawn: core.Baseline, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
	}
	for _, cfg := range configs {
		r, err := s.runFaultCell(p, cfg, 0, FaultParams{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if !r.Survived {
			t.Fatalf("%s: faulted run died: %s", cfg, r.Err)
		}
		if r.Faults["crash"] != 1 {
			t.Errorf("%s: crash events = %d, want 1", cfg, r.Faults["crash"])
		}
		if r.Faults["detect"] == 0 {
			t.Errorf("%s: no detect event", cfg)
		}
		if r.Faults["replan"] == 0 {
			t.Errorf("%s: no replan event: recovery never ran", cfg)
		}
		if r.RecoveryPath <= 0 {
			t.Errorf("%s: critical-path recovery bucket = %g, want > 0", cfg, r.RecoveryPath)
		}
		if r.TotalTime <= 0 || r.TotalTime < r.ProbeTotal {
			t.Errorf("%s: faulted total %.4fs vs probe %.4fs", cfg, r.TotalTime, r.ProbeTotal)
		}
	}
}

// TestFaultCellRMAWindowOwnerCrash is the one-sided acceptance criterion:
// the crash cell's victim (the last source, a pure source on a shrink pair)
// is exactly a window owner under RMA, killed mid-epoch inside the
// variable-data redistribution window. With a detector fast enough to see
// the crash inside the epoch, both spawn families must survive and recover
// on the cheap rungs — fresh windows plus checkpoint or snapshot reads for
// the lost source (rung <= 2), never the rung-3 full restore.
func TestFaultCellRMAWindowOwnerCrash(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	p := Pair{NS: 8, NT: 4}
	// The epoch is short: exposure snapshots at window creation, so in-flight
	// Gets survive the owner's death and the pull drains in well under a
	// millisecond. The detector must fire inside that window for the ladder
	// to engage at all (see TestFaultCellRMACrashMaskedBySnapshot for the
	// default-latency behavior).
	fp := FaultParams{DetectLatency: 1e-4}
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.RMA, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.RMA, Overlap: core.Sync},
	}
	for _, cfg := range configs {
		r, err := s.runFaultCell(p, cfg, 0, fp, nil)
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if !r.Survived {
			t.Fatalf("%s: faulted run died: %s", cfg, r.Err)
		}
		if r.Faults["crash"] != 1 {
			t.Errorf("%s: crash events = %d, want 1", cfg, r.Faults["crash"])
		}
		if r.Faults["replan"] == 0 {
			t.Errorf("%s: no replan event: recovery never ran", cfg)
		}
		if r.MaxRung < 0 || r.MaxRung > 2 {
			t.Errorf("%s: MaxRung = %d, want a crashed window owner recovered at rung <= 2",
				cfg, r.MaxRung)
		}
	}
}

// TestFaultCellRMACrashMaskedBySnapshot pins the defining one-sided
// property: with the default detector latency, a window owner crashed
// mid-epoch costs nothing — its exposure was snapshotted at window
// creation, the in-flight Gets complete against the snapshot, and the pass
// commits before the failure is even detected. No recovery rung engages.
func TestFaultCellRMACrashMaskedBySnapshot(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	cfg := core.Config{Spawn: core.Merge, Comm: core.RMA, Overlap: core.Sync}
	r, err := s.runFaultCell(Pair{NS: 8, NT: 4}, cfg, 0, FaultParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Survived {
		t.Fatalf("faulted run died: %s", r.Err)
	}
	if r.MaxRung != -1 {
		t.Errorf("MaxRung = %d, want -1: the snapshot should mask the crash entirely", r.MaxRung)
	}
	if r.Faults["crash"] != 1 || r.Faults["detect"] == 0 {
		t.Errorf("fault events = %v, want the crash injected and detected", r.Faults)
	}
	if r.Overhead > 1e-6 {
		t.Errorf("overhead = %gs, want ~0: a masked crash costs no time", r.Overhead)
	}
}

// TestRMAFaultCampaignDeterminism pins campaign reproducibility on the
// one-sided family: the full six-config RMA fault campaign must produce
// byte-identical progress output and rows at any worker count.
func TestRMAFaultCampaignDeterminism(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	configs, err := FaultConfigs("rma")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (string, string) {
		s.Workers = workers
		var lines strings.Builder
		rows, err := s.RunFaultCampaign(Pair{NS: 8, NT: 4}, configs, FaultParams{},
			func(line string) { lines.WriteString(line); lines.WriteByte('\n') })
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if row.Survived != row.Runs {
				t.Errorf("-j %d: %s survived %d/%d", workers, row.Config, row.Survived, row.Runs)
			}
		}
		return lines.String(), fmt.Sprintf("%+v", rows)
	}
	linesA, rowsA := run(1)
	linesB, rowsB := run(8)
	if linesA != linesB {
		t.Errorf("progress output differs between -j 1 and -j 8:\n%s\nvs\n%s", linesA, linesB)
	}
	if rowsA != rowsB {
		t.Errorf("campaign rows differ between -j 1 and -j 8:\n%s\nvs\n%s", rowsA, rowsB)
	}
}

// TestRecoveryPathAttributedPerRung runs a real crash cell and checks the
// analyzer's per-rung split of the recovery bucket: the rung keys are
// well-formed, their times sum to the whole bucket, and the crash's
// rung-2 escalation owns recovery time.
func TestRecoveryPathAttributedPerRung(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	p := Pair{NS: 8, NT: 4}
	cfg := core.Config{Spawn: core.Merge, Comm: core.P2P, Overlap: core.Sync}

	base := fault.Plan{Seed: 1}
	win := &trace.PhaseWindow{Phase: trace.PhaseRedistVar}
	if _, err := s.runWithPlan(p, cfg, 0, FaultParams{}, base, nil, win); err != nil {
		t.Fatalf("probe: %v", err)
	}
	lo, hi, ok := win.Window()
	if !ok || hi <= lo {
		t.Fatalf("probe recorded no %s window", trace.PhaseRedistVar)
	}

	plan := base
	plan.Actions = []fault.Action{{Kind: fault.CrashRank, GID: p.NS - 1, At: lo + 0.5*(hi-lo)}}
	rec := trace.NewRecorder()
	if _, err := s.runWithPlan(p, cfg, 0, FaultParams{}, plan, rec, nil); err != nil {
		t.Fatalf("faulted run died: %v", err)
	}

	a := analyze.Analyze(rec.Events())
	if a.Path.Buckets.Recovery <= 0 {
		t.Fatalf("no recovery bucket: %+v", a.Path.Buckets)
	}
	if len(a.Path.RecoveryByRung) == 0 {
		t.Fatal("recovery bucket not split per rung")
	}
	var sum float64
	for key, v := range a.Path.RecoveryByRung {
		if len(key) != 5 || key[:4] != "rung" || key[4] < '0' || key[4] > '4' {
			t.Errorf("malformed rung key %q", key)
		}
		if v <= 0 {
			t.Errorf("rung %s billed %g, want > 0", key, v)
		}
		sum += v
	}
	if rel := math.Abs(sum - a.Path.Buckets.Recovery); rel > 1e-9*a.Path.Buckets.Recovery {
		t.Errorf("per-rung sum %.9f != recovery bucket %.9f", sum, a.Path.Buckets.Recovery)
	}
	if a.Path.RecoveryByRung["rung2"] <= 0 {
		t.Errorf("crash did not bill rung2: %v", a.Path.RecoveryByRung)
	}

	var report strings.Builder
	if err := a.WriteReport(&report); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if !strings.Contains(report.String(), "recovery by rung:") {
		t.Error("report omits the per-rung recovery breakdown")
	}
}

// TestFaultCellCRRestoresFromCheckpoint exercises the CR family under the
// protocol: the protect checkpoint doubles as the transfer, so a source
// crash after protect costs a recovery round of re-reads but never data.
func TestFaultCellCRRestoresFromCheckpoint(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	cfg := core.Config{Spawn: core.Merge, Comm: core.CR, Overlap: core.Sync}
	r, err := s.runFaultCell(Pair{NS: 8, NT: 4}, cfg, 0, FaultParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Survived {
		t.Fatalf("CR run died: %s", r.Err)
	}
}

// waveVolume is the whole world's one-wave volume at an ns -> ns/2 block
// shrink: every source's peak wave under the pass's deterministic
// schedule, summed. Rung-0 selective retransmission is scoped to the
// incomplete wave, so a dropped payload must cost less than this.
func waveVolume(ns int, elemsPerRank, ceiling int64) int64 {
	n := int64(ns) * elemsPerRank
	it := core.NewDenseVirtual("x", n, 8, false)
	src := partition.NewBlockDist(n, ns)
	dst := partition.NewBlockDist(n, ns/2)
	var total int64
	var chunks []partition.Chunk
	for s := 0; s < ns; s++ {
		chunks = chunks[:0]
		partition.VisitSendOverlaps(src, dst, s, func(ch partition.Chunk) {
			chunks = append(chunks, ch)
		})
		_, _, peak := core.PlanWaveSchedule(it, chunks, ceiling)
		total += peak
	}
	return total
}

// TestWaveAddressedFaultsRecover runs wave-addressed fault plans end to
// end under a memory ceiling: a Merge 2:1 shrink at 40->20 of 64 KiB per
// source under a 16 KiB ceiling, so every source runs four waves and wave
// 2 is genuinely mid-pass. The victim of both fault kinds is the last
// source, a pure source at this shrink.
//
// A crash at wave 2 must be survived at rung <= 2. A two-sided pass has
// to climb the ladder for it; a one-sided pass may ride through without
// recovering at all, because exposure snapshots keep serving Gets after
// the exposer dies. One dropped payload in wave 2 must be repaired at
// rung 0, retransmitting strictly less than one wave's world volume.
// Every cell keeps its retained copies within the ceiling and its live
// plus retained footprint within four ceilings.
func TestWaveAddressedFaultsRecover(t *testing.T) {
	const (
		ns, nt  = 40, 20
		elems   = 8192
		ceiling = 16 << 10
		wave    = 2
		victim  = ns - 1
	)
	s := DefaultSetup(netmodel.Ethernet10G())
	s.Cfg = synthapp.ScaleConfig(ns, elems)
	volume := waveVolume(ns, elems, ceiling)

	for _, comm := range []core.CommMethod{core.P2P, core.RMA} {
		cfg := core.Config{Spawn: core.Merge, Comm: comm, Overlap: core.Sync, MemCeiling: ceiling}
		drop := fault.Action{Kind: fault.DropMsg, Src: -1, Dst: -1, Tag: -1, Count: 1, Wave: wave}
		if comm == core.P2P {
			// Two-sided: drop a value payload of the pure source, whose
			// spans stay pristine through recovery, so rung 0 genuinely
			// retransmits. A wildcard could hit a size header or a
			// dual-role rank whose retained copy the ceiling evicted;
			// both recover through the checkpoint instead. Every segment
			// here is exactly one ceiling and each source owns one chunk,
			// so wave w carries segment w-1 on its per-segment tag.
			// One-sided rung 0 re-pulls any lost Get from the exposure
			// snapshot, so its rule stays a wildcard.
			drop.Src = victim
			drop.Tag = core.WaveValueTag(0, wave-1)
		}
		for _, tc := range []struct {
			name string // also the fault counter the action fires
			act  fault.Action
		}{
			{"crash", fault.Action{Kind: fault.CrashRank, GID: victim, Wave: wave}},
			{"drop", drop},
		} {
			t.Run(cfg.String()+"/"+tc.name, func(t *testing.T) {
				stream := obs.NewStream()
				plan := fault.Plan{Seed: 1, Actions: []fault.Action{tc.act}}
				rec := trace.NewRecorder()
				_, err := s.runWithPlan(Pair{NS: ns, NT: nt}, cfg, 0, FaultParams{}, plan, rec, stream)
				if err != nil {
					t.Fatalf("did not survive: %v", err)
				}
				if n := rec.Metrics().Faults[tc.name]; n != 1 {
					t.Fatalf("%s fired %d times, want 1: wave %d never started?", tc.name, n, wave)
				}
				maxRung := -1
				for _, ev := range rec.Events() {
					if ev.Kind == trace.EvFault && ev.Op == "escalate" && ev.Tag > maxRung {
						maxRung = ev.Tag
					}
				}
				switch tc.act.Kind {
				case fault.CrashRank:
					if maxRung > 2 || (comm == core.P2P && maxRung < 0) {
						t.Errorf("crash recovered at rung %d", maxRung)
					}
				case fault.DropMsg:
					if maxRung != 0 {
						t.Errorf("drop recovered at rung %d, want 0", maxRung)
					}
					if re := int64(stream.Gauge(core.RetransmittedBytesGauge)); re <= 0 || re >= volume {
						t.Errorf("retransmitted %d bytes, want in (0, %d)", re, volume)
					}
				}
				live := int64(stream.Gauge(core.PeakLiveBytesGauge))
				retained := int64(stream.Gauge(core.PeakRetainedBytesGauge))
				if live <= 0 {
					t.Errorf("peak live bytes %d", live)
				}
				if retained < 0 || retained > ceiling {
					t.Errorf("peak retained bytes %d outside [0, %d]", retained, ceiling)
				}
				if live+retained > 4*ceiling {
					t.Errorf("peak live+retained %d exceeds 4x%d", live+retained, ceiling)
				}
			})
		}
	}
}
