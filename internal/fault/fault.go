// Package fault provides deterministic fault injection for the
// redistribution emulator: seeded fault plans (rank crashes, message drops
// and delays, spawn failures, link degradation) injected through the
// simulation kernel and the MPI layer's hooks, plus the failure detector
// the recovery protocol in internal/core consumes.
//
// Everything is reproducible: the same plan and seed against the same
// configuration yields a byte-identical event trace, because injection
// points are scheduled on the virtual clock and the only randomness is the
// plan's own seeded jitter.
package fault

import (
	"encoding/json"
	"fmt"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// CrashRank kills the process with world-unique id GID at virtual time
	// At: its goroutines unwind, it stops participating in any exchange,
	// and the detector reports it failed after the detection latency.
	CrashRank Kind = iota
	// DropMsg silently discards matching sends (the sender sees immediate
	// completion, the receiver nothing), up to Count times.
	DropMsg
	// DelayMsg adds Delay seconds of wire latency to matching sends, up to
	// Count times.
	DelayMsg
	// FailSpawn makes the next MPI_Comm_spawn pay the spawn cost Attempts
	// extra times before succeeding (failed runtime negotiations).
	FailSpawn
	// DegradeLink multiplies the NIC bandwidth of node Node by Factor
	// (0 < Factor <= 1) from virtual time At on.
	DegradeLink
)

func (k Kind) String() string {
	switch k {
	case CrashRank:
		return "crash-rank"
	case DropMsg:
		return "drop-msg"
	case DelayMsg:
		return "delay-msg"
	case FailSpawn:
		return "fail-spawn"
	case DegradeLink:
		return "degrade-link"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON writes the kind as its string name, so plan files stay
// readable and stable if the enum is ever reordered.
func (k Kind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts both the string names and legacy numeric values.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for _, c := range []Kind{CrashRank, DropMsg, DelayMsg, FailSpawn, DegradeLink} {
			if c.String() == s {
				*k = c
				return nil
			}
		}
		return fmt.Errorf("fault: unknown kind %q", s)
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return fmt.Errorf("fault: kind must be a name or number: %s", b)
	}
	if n < int(CrashRank) || n > int(DegradeLink) {
		return fmt.Errorf("fault: kind %d out of range", n)
	}
	*k = Kind(n)
	return nil
}

// Action is one fault in a plan. Only the fields relevant to its Kind are
// read.
type Action struct {
	Kind Kind

	// CrashRank, DegradeLink: injection time on the virtual clock.
	At float64
	// CrashRank: the victim's world-unique process id.
	GID int

	// DropMsg, DelayMsg: the match pattern. Src and Dst are world-unique
	// ids, Tag an exact tag; -1 is a wildcard. One-sided Gets are offered
	// with the sentinel tag -1 (exposer as source, origin as destination),
	// so a wildcard-tag rule covers them alongside two-sided traffic.
	// Count limits how many sends the rule consumes (<= 0: unlimited).
	Src, Dst, Tag int
	Count         int
	// DelayMsg: the extra latency.
	Delay float64
	// DropMsg, DelayMsg: the rule's live window on the virtual clock. A
	// send matches only when After <= now, and now < Before when Before is
	// set (0 leaves that bound open). Chaos plans use the window to confine
	// wildcard rules to the redistribution phase.
	After, Before float64

	// Wave addresses the fault by memory-ceiling wave index (1-based; see
	// core's wave schedule) instead of virtual time, so plans hit "mid-wave"
	// without probing per-configuration timings. For CrashRank, the victim
	// dies the moment some rank issues wave Wave (At is ignored). For
	// DropMsg/DelayMsg, a message matches while Wave is the sending rank's
	// own most recently issued wave — or the receiver's for one-sided Gets,
	// whose pulling origin drives the schedule — combined with the time
	// window, if set. Per-rank phase, not global: at scale the ranks' wave
	// schedules drift apart by more than a wave. Zero means time-addressed,
	// as before. A run with Config.MemCeiling set issues several waves; an
	// unbounded pass is a single wave and announces wave 1, so Wave 1
	// addresses its whole attempt. Recovery rounds announce no waves. A
	// wave that never starts leaves the action inert.
	Wave int

	// FailSpawn: failed attempts before the spawn succeeds (<= 0: one).
	Attempts int

	// DegradeLink: the node and the bandwidth factor in (0, 1].
	Node   int
	Factor float64
}

// DefaultDetectLatency is the heartbeat timeout separating a crash from
// its detection: 10 simulated milliseconds.
const DefaultDetectLatency = 0.01

// Plan is a reproducible fault campaign: a seed, a detection latency, and
// a list of actions. Timed actions fire at At plus a seeded jitter drawn
// uniformly from [0, Jitter).
type Plan struct {
	Seed          int64
	DetectLatency float64 // <= 0: DefaultDetectLatency
	Jitter        float64
	Actions       []Action
}
