package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/trace"
)

// ChaosParams tunes a chaos campaign: randomized fault plans generated from
// a master seed and thrown at every configuration.
type ChaosParams struct {
	// Seed is the master seed; every (config, plan) cell derives its own
	// sub-seed from it, so campaigns are reproducible at any worker count.
	Seed int64
	// Plans is how many random plans to run per configuration (default 4).
	Plans int
	// MaxFaults bounds the actions per plan (default 3).
	MaxFaults int
	// FaultParams tunes the runs themselves (detector latency, timeout).
	FaultParams
}

func (cp ChaosParams) plans() int {
	if cp.Plans > 0 {
		return cp.Plans
	}
	return 4
}

func (cp ChaosParams) maxFaults() int {
	if cp.MaxFaults > 0 {
		return cp.MaxFaults
	}
	return 3
}

// ChaosOutcome is the result of one (config, plan) chaos cell.
type ChaosOutcome struct {
	Config    core.Config
	PlanIndex int
	Plan      fault.Plan
	// Survived is true when the run completed under the plan; otherwise Err
	// carries the failure and MinimalPlan the shrunk reproducer.
	Survived bool
	Err      string
	// MinimalPlan is the smallest action subset that still reproduces a
	// failure (greedy one-at-a-time deletion to a fixed point), with
	// MinimalErr its error; ShrinkRuns counts the replays spent shrinking.
	MinimalPlan *fault.Plan
	MinimalErr  string
	ShrinkRuns  int
}

// subSeed derives the deterministic per-cell seed from the master seed and
// the cell coordinates (a splitmix64 step, so neighboring cells decorrelate).
func subSeed(master int64, cfgIdx, planIdx int) int64 {
	z := uint64(master) + 0x9e3779b97f4a7c15*uint64(cfgIdx*1000003+planIdx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) & 0x7fffffffffffffff)
}

// chaosVictims returns the world-unique ids a chaos plan may crash: the
// pure sources, whose death is always maskable once the protect checkpoint
// is written. Under RMA every pure source is a window owner, so these
// plans exercise the one-sided crash semantics (snapshot serving, fresh
// survivor windows) by construction. Rank 0 is excluded — it coordinates
// the spawn stage. Configurations with no pure source beyond rank 0
// (Merge expansion) get no crash actions.
func chaosVictims(cfg core.Config, p Pair) []int {
	lo := 1
	if cfg.Spawn == core.Merge {
		// Ranks below NT double as targets under Merge.
		lo = p.NT
	}
	var out []int
	for g := lo; g < p.NS; g++ {
		if g > 0 {
			out = append(out, g)
		}
	}
	return out
}

// GenerateChaosPlan draws a random fault plan of up to maxFaults actions
// from rng. Timed actions land inside [0.1, 0.9] of the window [lo, hi)
// (the configuration's fault-free redistribution window, after the protect
// checkpoint is complete); message rules are wildcards confined to that
// window. Crash victims come from victims, each at most once. FailSpawn
// shifts the whole pre-window timeline, so plans containing it draw no
// crashes (a shifted crash could land mid-protect, which no protocol can
// mask).
func GenerateChaosPlan(rng *rand.Rand, maxFaults int, lo, hi float64,
	victims []int, nodes int, detectLatency float64) fault.Plan {

	plan := fault.Plan{DetectLatency: detectLatency}
	n := 1 + rng.Intn(maxFaults)
	w := hi - lo
	at := func() float64 { return lo + (0.1+0.8*rng.Float64())*w }

	left := append([]int(nil), victims...)
	hasSpawn, hasCrash := false, false
	for i := 0; i < n; i++ {
		kinds := []fault.Kind{fault.DropMsg, fault.DelayMsg}
		if len(left) > 0 && !hasSpawn {
			kinds = append(kinds, fault.CrashRank)
		}
		if !hasCrash && !hasSpawn {
			kinds = append(kinds, fault.FailSpawn)
		}
		if nodes > 0 {
			kinds = append(kinds, fault.DegradeLink)
		}
		switch k := kinds[rng.Intn(len(kinds))]; k {
		case fault.CrashRank:
			v := rng.Intn(len(left))
			gid := left[v]
			left = append(left[:v], left[v+1:]...)
			hasCrash = true
			plan.Actions = append(plan.Actions, fault.Action{
				Kind: fault.CrashRank, GID: gid, At: at(),
			})
		case fault.DropMsg:
			plan.Actions = append(plan.Actions, fault.Action{
				Kind: fault.DropMsg, Src: -1, Dst: -1, Tag: -1,
				Count: 1 + rng.Intn(3), After: at(), Before: hi,
			})
		case fault.DelayMsg:
			plan.Actions = append(plan.Actions, fault.Action{
				Kind: fault.DelayMsg, Src: -1, Dst: -1, Tag: -1,
				Count: 1 + rng.Intn(3), Delay: 0.05 + 0.45*rng.Float64(),
				After: at(), Before: hi,
			})
		case fault.FailSpawn:
			hasSpawn = true
			plan.Actions = append(plan.Actions, fault.Action{
				Kind: fault.FailSpawn, Attempts: 1 + rng.Intn(3),
			})
		case fault.DegradeLink:
			plan.Actions = append(plan.Actions, fault.Action{
				Kind: fault.DegradeLink, Node: rng.Intn(nodes),
				Factor: 0.25 + 0.65*rng.Float64(), At: at(),
			})
		}
	}
	return plan
}

// RunPlan replays one fault plan against a cell and reports whether the run
// survived, with the error string otherwise. This is the deterministic
// replay primitive behind shrinking and `faultsweep -plan`; it records no
// events, since only the outcome is read. The error is
// truncated to its first line: a simulated panic carries a goroutine stack
// whose addresses vary run to run, while the first line — which process
// failed how — is deterministic, and determinism is what plan files and the
// shrinker compare.
func (s Setup) RunPlan(p Pair, mal core.Config, rep int, fp FaultParams,
	plan fault.Plan) (bool, string) {

	_, err := s.runWithPlan(p, mal, rep, fp, plan, nil, nil)
	if err != nil {
		msg := err.Error()
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			msg = msg[:i]
		}
		return false, msg
	}
	return true, ""
}

// shrinkPlan reduces a failing plan to a minimal reproducer: repeatedly try
// dropping one action at a time, keeping any deletion under which the run
// still fails, until no single deletion preserves the failure. Replays are
// deterministic, so the result depends only on the input plan.
func (s Setup) shrinkPlan(p Pair, mal core.Config, rep int, fp FaultParams,
	plan fault.Plan, errMsg string) (fault.Plan, string, int) {

	runs := 0
	for {
		shrunk := false
		for i := 0; i < len(plan.Actions) && len(plan.Actions) > 1; i++ {
			cand := plan
			cand.Actions = append(append([]fault.Action(nil),
				plan.Actions[:i]...), plan.Actions[i+1:]...)
			runs++
			if ok, msg := s.RunPlan(p, mal, rep, fp, cand); !ok {
				plan, errMsg = cand, msg
				shrunk = true
				i--
			}
		}
		if !shrunk {
			return plan, errMsg, runs
		}
	}
}

// RunChaosCampaign throws Plans random fault plans at every configuration:
// per config, a fault-free probe locates the redistribution window, then
// each derived plan runs against a fresh world. Any failing plan is shrunk
// to its minimal reproducer. Cells fan out across Setup.Workers; outcomes
// are in campaign order and depend only on ChaosParams.Seed.
func (s Setup) RunChaosCampaign(p Pair, configs []core.Config, cp ChaosParams,
	progress func(string)) ([]ChaosOutcome, error) {

	if len(configs) == 0 {
		return nil, nil
	}
	type window struct{ lo, hi float64 }
	windows := make([]window, len(configs))
	err := ForEach(len(configs), s.Workers, func(i int) error {
		base := fault.Plan{DetectLatency: cp.DetectLatency}
		win := &trace.PhaseWindow{Phase: trace.PhaseRedistVar}
		if _, err := s.runWithPlan(p, configs[i], 0, cp.FaultParams, base, nil, win); err != nil {
			return fmt.Errorf("harness: chaos probe %d->%d %s: %w", p.NS, p.NT, configs[i], err)
		}
		lo, hi, ok := win.Window()
		if !ok || hi <= lo {
			return fmt.Errorf("harness: chaos probe %d->%d %s recorded no %s window",
				p.NS, p.NT, configs[i], trace.PhaseRedistVar)
		}
		windows[i] = window{lo, hi}
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	plans := cp.plans()
	n := len(configs) * plans
	outcomes := make([]ChaosOutcome, n)
	var walls []time.Duration
	if s.Obs != nil {
		walls = make([]time.Duration, n)
	}
	err = ForEach(n, s.Workers, func(i int) error {
		cfgIdx, planIdx := i/plans, i%plans
		cfg, win := configs[cfgIdx], windows[cfgIdx]
		seed := subSeed(cp.Seed, cfgIdx, planIdx)
		rng := rand.New(rand.NewSource(seed))
		plan := GenerateChaosPlan(rng, cp.maxFaults(), win.lo, win.hi,
			chaosVictims(cfg, p), s.Cluster.Nodes, cp.DetectLatency)
		plan.Seed = seed
		out := ChaosOutcome{Config: cfg, PlanIndex: planIdx, Plan: plan}
		t0 := time.Now()
		if ok, msg := s.RunPlan(p, cfg, 0, cp.FaultParams, plan); ok {
			out.Survived = true
		} else {
			out.Err = msg
			min, minErr, runs := s.shrinkPlan(p, cfg, 0, cp.FaultParams, plan, msg)
			out.MinimalPlan, out.MinimalErr, out.ShrinkRuns = &min, minErr, runs
		}
		if s.Obs != nil {
			walls[i] = time.Since(t0)
		}
		outcomes[i] = out
		return nil
	}, func(i int) {
		if s.Obs != nil {
			s.Obs.CellDone(CellStats{Wall: walls[i], Survived: outcomes[i].Survived, MaxRung: -1})
		}
		if progress == nil {
			return
		}
		o := outcomes[i]
		if o.Survived {
			progress(fmt.Sprintf("%d->%d %-16s plan %d (%d faults) survived",
				p.NS, p.NT, o.Config, o.PlanIndex, len(o.Plan.Actions)))
		} else {
			progress(fmt.Sprintf("%d->%d %-16s plan %d DIED: %s (minimal: %d of %d actions, %d shrink runs)",
				p.NS, p.NT, o.Config, o.PlanIndex, o.Err,
				len(o.MinimalPlan.Actions), len(o.Plan.Actions), o.ShrinkRuns))
		}
	})
	if err != nil {
		return nil, err
	}
	return outcomes, nil
}
