package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/netmodel"
)

func paperSystem() (System, harness.Setup) {
	setup := harness.DefaultSetup(netmodel.Ethernet10G())
	return FromCluster(setup.Cluster, setup.MPIOpts), setup
}

func TestSpawnAndNodesRules(t *testing.T) {
	s, _ := paperSystem()
	if s.SpawnTime(0) != 0 {
		t.Fatal("SpawnTime(0) != 0")
	}
	if s.SpawnTime(160) <= s.SpawnTime(80) {
		t.Fatal("spawn not monotone")
	}
	if got := s.nodesFor(160); got != 8 {
		t.Fatalf("nodesFor(160) = %d, want 8", got)
	}
	if got := s.nodesFor(2); got != 1 {
		t.Fatalf("nodesFor(2) = %d, want 1", got)
	}
}

func TestOversubscriptionZeroForMerge(t *testing.T) {
	s, _ := paperSystem()
	// Merge never exceeds max(NS,NT) processes; Baseline doubles up.
	if s.Oversubscription(160, 80) <= 0 {
		t.Fatal("Baseline 160+80 on 160 cores should oversubscribe")
	}
	if s.Oversubscription(10, 2) != 0 {
		t.Fatal("12 processes on 20 cores should not oversubscribe")
	}
}

func TestModelOrderingMatchesPaper(t *testing.T) {
	s, _ := paperSystem()
	const bytes = 4 << 30
	for _, pair := range []struct{ ns, nt int }{{160, 80}, {80, 160}, {160, 20}, {40, 160}} {
		mergeT := s.ReconfigTime(Method{Merge: true}, pair.ns, pair.nt, bytes)
		baseP2P := s.ReconfigTime(Method{}, pair.ns, pair.nt, bytes)
		baseCOL := s.ReconfigTime(Method{Pairwise: true}, pair.ns, pair.nt, bytes)
		if !(mergeT < baseP2P && baseP2P < baseCOL) {
			t.Fatalf("%d->%d: ordering broken: merge %.3f, baseline P2P %.3f, baseline COLS %.3f",
				pair.ns, pair.nt, mergeT, baseP2P, baseCOL)
		}
	}
}

// within checks |a/b - 1| <= tol.
func within(a, b, tol float64) bool {
	if b == 0 {
		return a == 0
	}
	return math.Abs(a/b-1) <= tol
}

func TestModelPredictsSimulatedReconfig(t *testing.T) {
	if testing.Short() {
		t.Skip("runs paper-scale simulations")
	}
	s, setup := paperSystem()
	setup.Reps = 1
	_, constFrac := setup.Cfg.TotalDataBytes()
	total, _ := setup.Cfg.TotalDataBytes()
	_ = constFrac

	cases := []struct {
		pair harness.Pair
		cfg  core.Config
		m    Method
	}{
		{harness.Pair{NS: 160, NT: 80}, core.Config{Spawn: core.Merge, Comm: core.COL}, Method{Merge: true}},
		{harness.Pair{NS: 80, NT: 160}, core.Config{Spawn: core.Merge, Comm: core.COL}, Method{Merge: true}},
		{harness.Pair{NS: 160, NT: 80}, core.Config{Spawn: core.Baseline, Comm: core.COL}, Method{Pairwise: true}},
		{harness.Pair{NS: 80, NT: 160}, core.Config{Spawn: core.Baseline, Comm: core.P2P}, Method{}},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s-%dto%d", c.cfg, c.pair.NS, c.pair.NT), func(t *testing.T) {
			res, err := setup.RunCell(c.pair, c.cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			pred := s.ReconfigTime(c.m, c.pair.NS, c.pair.NT, total)
			// Generous: the model ignores latency chains, noise, and the
			// exact algorithmic constants — a 60% envelope is the claim.
			if !within(pred, res.ReconfigTime(), 0.6) {
				t.Fatalf("model %.3f vs simulated %.3f (beyond 60%%)", pred, res.ReconfigTime())
			}
		})
	}
}

func TestModelPredictsIterationTime(t *testing.T) {
	if testing.Short() {
		t.Skip("runs paper-scale simulations")
	}
	s, setup := paperSystem()
	setup.Reps = 1
	var compute float64
	var gather int64
	for _, st := range setup.Cfg.Stages {
		switch st.Type {
		case "compute":
			compute += st.Work
		case "allgatherv":
			gather = st.Bytes
		}
	}
	for _, p := range []int{40, 160} {
		pair := harness.Pair{NS: p, NT: p / 2}
		res, err := setup.RunCell(pair, core.Config{Spawn: core.Merge, Comm: core.COL}, 1)
		if err != nil {
			t.Fatal(err)
		}
		pred := s.IterationTime(p, compute, gather)
		if !within(pred, res.IterTimeBefore, 0.6) {
			t.Fatalf("p=%d: model iteration %.4f vs simulated %.4f", p, pred, res.IterTimeBefore)
		}
	}
}
