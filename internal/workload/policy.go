package workload

import (
	"fmt"
	"strings"

	"repro/internal/rms"
)

// PolicyJob is the scheduler's read-only view of one running malleable
// job at a scheduling instant.
type PolicyJob struct {
	ID       int
	Procs    int // minimum (and baseline) allocation
	MaxProcs int // expansion cap
	// Alloc is the job's allocation before this pass (Procs when the job
	// just started).
	Alloc int
	// Remaining is the job's unfinished work in core-seconds.
	Remaining float64
	// DataBytes is redistributed at every reconfiguration.
	DataBytes int64
}

// Policy decides how a cluster's spare cores are shared among running
// malleable jobs. At every scheduling event the engine first guarantees
// each running job its minimum (Procs) and admits queued jobs FCFS with
// backfill; the policy then distributes the `free` cores left over.
//
// Target returns one allocation per job, in order. The engine clamps each
// target to [Procs, MaxProcs] and trims deterministically if the policy
// over-commits (Σ(target−Procs) must stay ≤ free), then prices every
// allocation change through the campaign's rms.CostModel and freezes the
// job for the reconfiguration.
//
// Target must be a pure function of its arguments and must not retain
// jobs: the engine reuses that slice across passes, and it skips a
// repeated pass whose inputs are unchanged instead of asking again.
type Policy interface {
	Name() string
	Target(jobs []PolicyJob, free int, queued int, cost rms.CostModel) []int
}

// RigidPolicy is the no-malleability baseline: every job, malleable or
// not, holds exactly its minimum allocation forever. It prices nothing —
// no job ever reconfigures — and is the control the malleable policies
// are measured against.
type RigidPolicy struct{}

func (RigidPolicy) Name() string { return "rigid" }

func (RigidPolicy) Target(jobs []PolicyJob, free, queued int, cost rms.CostModel) []int {
	targets := make([]int, len(jobs))
	for i, j := range jobs {
		targets[i] = j.Procs
	}
	return targets
}

// GreedyPolicy expands aggressively: spare cores go to malleable jobs
// round-robin, one at a time, until every job hits its cap or the cores
// run out. It shrinks implicitly — the engine's admission pass reclaims
// expansion down to the minimum whenever arriving jobs need the cores —
// and never asks whether an expansion amortizes its reconfiguration cost.
type GreedyPolicy struct{}

func (GreedyPolicy) Name() string { return "greedy" }

func (GreedyPolicy) Target(jobs []PolicyJob, free, queued int, cost rms.CostModel) []int {
	targets := make([]int, len(jobs))
	for i, j := range jobs {
		targets[i] = j.Procs
	}
	// Sticky pass: keep current expansions while the budget lasts, so a
	// stable free pool causes no reallocation churn at all — reconfigs
	// happen only when the spare-core supply actually changes.
	for i, j := range jobs {
		keep := j.Alloc - j.Procs
		if keep > free {
			keep = free
		}
		if keep > 0 {
			targets[i] += keep
			free -= keep
		}
	}
	for free > 0 {
		gave := false
		for i, j := range jobs {
			if free == 0 {
				break
			}
			if targets[i] < j.MaxProcs {
				targets[i]++
				free--
				gave = true
			}
		}
		if !gave {
			break
		}
	}
	return targets
}

// FairSharePolicy divides spare cores equally among malleable jobs by
// water-filling (jobs that hit their cap return the excess to the pool),
// and reclaims all expansion the moment any job waits in the queue: under
// pressure every malleable job runs at its minimum, so the spare cores
// accumulate toward the queue head instead of feeding reconfiguration
// churn.
type FairSharePolicy struct{}

func (FairSharePolicy) Name() string { return "fairshare" }

func (FairSharePolicy) Target(jobs []PolicyJob, free, queued int, cost rms.CostModel) []int {
	targets := make([]int, len(jobs))
	for i, j := range jobs {
		targets[i] = j.Procs
	}
	if queued > 0 {
		return targets // reclaim: nothing expands while jobs wait
	}
	waterFill(jobs, targets, free)
	return targets
}

// waterFill distributes free cores equally among jobs still below cap,
// iterating as capped jobs return their unused share.
func waterFill(jobs []PolicyJob, targets []int, free int) {
	for free > 0 {
		open := 0
		for i, j := range jobs {
			if targets[i] < j.MaxProcs {
				open++
			}
		}
		if open == 0 {
			return
		}
		share := free / open
		if share == 0 {
			// Fewer cores than open jobs: hand out the remainder one by
			// one in job order and stop.
			for i, j := range jobs {
				if free == 0 {
					return
				}
				if targets[i] < j.MaxProcs {
					targets[i]++
					free--
				}
			}
			return
		}
		for i, j := range jobs {
			give := share
			if room := j.MaxProcs - targets[i]; give > room {
				give = room
			}
			targets[i] += give
			free -= give
		}
	}
}

// UtilTargetPolicy expands only when the reconfiguration pays for itself:
// a job grows toward its fair share only if the time saved
// (remaining/alloc − remaining/target) exceeds paybackFactor times the
// priced reconfiguration cost, and holds its current allocation otherwise
// — avoiding the grow/shrink churn a near-finished or data-heavy job
// would pay under GreedyPolicy. Like FairSharePolicy it reclaims to the
// minimum under queue pressure.
type UtilTargetPolicy struct{}

// paybackFactor is UtilTargetPolicy's required ratio of saved time to
// reconfiguration cost: an expansion must save 5x what it costs.
const paybackFactor = 5

func (UtilTargetPolicy) Name() string { return "utiltarget" }

func (UtilTargetPolicy) Target(jobs []PolicyJob, free, queued int, cost rms.CostModel) []int {
	targets := make([]int, len(jobs))
	for i, j := range jobs {
		targets[i] = j.Procs
	}
	if queued > 0 {
		return targets
	}
	// Candidate shares from the same water-filling as FairSharePolicy.
	cand := make([]int, len(jobs))
	copy(cand, targets)
	waterFill(jobs, cand, free)
	// Budget-aware accept/hold pass: holding the current allocation is
	// free; expanding must amortize. Spend the free budget in job order.
	budget := free
	for i, j := range jobs {
		hold := j.Alloc
		if hold < j.Procs {
			hold = j.Procs
		}
		if hold > j.Procs+budget {
			hold = j.Procs + budget
		}
		target := hold
		if cand[i] > hold && cand[i] <= j.Procs+budget {
			saved := j.Remaining/float64(hold) - j.Remaining/float64(cand[i])
			if c := cost(hold, cand[i], j.DataBytes); saved > paybackFactor*c {
				target = cand[i]
			}
		}
		targets[i] = target
		budget -= target - j.Procs
	}
	return targets
}

// Policies returns the standard policy set in campaign order: the rigid
// baseline first, then the malleable policies.
func Policies() []Policy {
	return []Policy{RigidPolicy{}, GreedyPolicy{}, FairSharePolicy{}, UtilTargetPolicy{}}
}

// ParsePolicies resolves a comma-separated policy list ("all" for the
// full set).
func ParsePolicies(s string) ([]Policy, error) {
	if s == "all" || s == "" {
		return Policies(), nil
	}
	byName := map[string]Policy{}
	for _, p := range Policies() {
		byName[p.Name()] = p
	}
	var out []Policy
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("workload: unknown policy %q (want rigid, greedy, fairshare, utiltarget, or all)", name)
		}
		out = append(out, p)
	}
	return out, nil
}
