package core

import (
	"fmt"
	"strings"
)

// SpawnMethod is the paper's stage-2 process-management method.
type SpawnMethod int

const (
	// Baseline always spawns NT fresh target processes; all NS sources
	// finalize after the redistribution. Sources and targets communicate
	// over an inter-communicator, and during the reconfiguration NS+NT
	// processes share the nodes of max(NS, NT) — oversubscription.
	Baseline SpawnMethod = iota
	// Merge spawns or terminates only |NT-NS| processes; surviving sources
	// are targets too, and redistribution runs over an intra-communicator.
	Merge
)

func (m SpawnMethod) String() string {
	switch m {
	case Baseline:
		return "Baseline"
	case Merge:
		return "Merge"
	}
	return fmt.Sprintf("SpawnMethod(%d)", int(m))
}

// CommMethod is the stage-3 communication method.
type CommMethod int

const (
	// P2P redistributes with point-to-point messages per Algorithm 1:
	// a size message (tag 77) and a values message (tag 88) per
	// source-target pair, with Waitany-driven receivers.
	P2P CommMethod = iota
	// COL redistributes with collectives per Algorithm 2: Alltoall for
	// sizes, Alltoallv for values.
	COL
	// RMA redistributes with one-sided windows (the §5 future-work method,
	// implemented as an extension): sources expose their blocks, targets
	// pull their chunks with Get, and no size messages are needed.
	RMA
	// CR is the on-disk checkpoint/restart baseline of §2, implemented as
	// an extension for comparison: sources serialize to the shared parallel
	// filesystem and targets restore their blocks from it. Synchronous
	// only.
	CR
)

func (m CommMethod) String() string {
	switch m {
	case P2P:
		return "P2P"
	case COL:
		return "COL"
	case RMA:
		return "RMA"
	case CR:
		return "CR"
	}
	return fmt.Sprintf("CommMethod(%d)", int(m))
}

// Overlap is the §3.2 strategy for overlapping redistribution with the
// application.
type Overlap int

const (
	// Sync halts the sources until the redistribution completes.
	Sync Overlap = iota
	// NonBlocking issues non-blocking operations and has the sources test
	// completion at every iteration (Algorithm 3); suffix "A" in the paper.
	NonBlocking
	// Thread delegates the blocking redistribution to an auxiliary thread
	// per source (Algorithm 4); suffix "T" in the paper. The thread's
	// polling waits occupy a core.
	Thread
)

func (o Overlap) String() string {
	switch o {
	case Sync:
		return "S"
	case NonBlocking:
		return "A"
	case Thread:
		return "T"
	}
	return fmt.Sprintf("Overlap(%d)", int(o))
}

// Config selects one of the twelve reconfiguration variants evaluated in
// the paper: {Baseline, Merge} × {P2P, COL} × {S, A, T}.
type Config struct {
	Spawn   SpawnMethod
	Comm    CommMethod
	Overlap Overlap

	// MemCeiling caps the per-rank redistribution transfer footprint in
	// bytes: the P2P and RMA passes issue their chunks in waves whose
	// in-flight payload bytes stay within the ceiling, segmenting chunks
	// larger than it (see waves.go). Resilient passes run the same wave
	// schedule — the recovery ladder keys its ack ledger on the segmented
	// spans, bounds retained staging copies by the ceiling, and paces
	// recovery-round traffic in the same waves. Zero means unlimited: one
	// wave holding every chunk, which is the paper's one-shot schedule.
	// Negative values are rejected by Validate. COL and CR ignore the
	// ceiling.
	MemCeiling int64
}

// Validate rejects impossible configurations; StartReconfig panics on a
// non-nil error so mistakes surface at the call site.
func (c Config) Validate() error {
	if c.MemCeiling < 0 {
		return fmt.Errorf("core: negative MemCeiling %d (want 0 for unlimited, or a positive byte bound)", c.MemCeiling)
	}
	return nil
}

// String renders the paper's naming, e.g. "Merge COLA" or "Baseline P2PS".
func (c Config) String() string {
	return fmt.Sprintf("%s %s%s", c.Spawn, c.Comm, c.Overlap)
}

// Asynchronous reports whether the configuration overlaps the
// reconfiguration with application execution.
func (c Config) Asynchronous() bool { return c.Overlap != Sync }

// AllConfigs lists the twelve variants in the paper's presentation order.
func AllConfigs() []Config {
	var out []Config
	for _, s := range []SpawnMethod{Baseline, Merge} {
		for _, m := range []CommMethod{P2P, COL} {
			for _, o := range []Overlap{Sync, NonBlocking, Thread} {
				out = append(out, Config{Spawn: s, Comm: m, Overlap: o})
			}
		}
	}
	return out
}

// RMAConfigs lists the six one-sided variants this reproduction adds as
// the paper's future-work extension.
func RMAConfigs() []Config {
	var out []Config
	for _, s := range []SpawnMethod{Baseline, Merge} {
		for _, o := range []Overlap{Sync, NonBlocking, Thread} {
			out = append(out, Config{Spawn: s, Comm: RMA, Overlap: o})
		}
	}
	return out
}

// ParseConfig parses names like "Merge COLA", "baseline p2ps", or
// "merge-p2p-t".
func ParseConfig(s string) (Config, error) {
	norm := strings.ToLower(strings.NewReplacer("-", " ", "_", " ").Replace(s))
	fields := strings.Fields(norm)
	var c Config
	var rest string
	switch {
	case len(fields) == 2:
		rest = fields[1]
	case len(fields) == 3:
		rest = fields[1] + fields[2]
	default:
		return c, fmt.Errorf("core: cannot parse config %q", s)
	}
	switch fields[0] {
	case "baseline":
		c.Spawn = Baseline
	case "merge":
		c.Spawn = Merge
	default:
		return c, fmt.Errorf("core: unknown spawn method %q", fields[0])
	}
	switch {
	case strings.HasPrefix(rest, "p2p"):
		c.Comm = P2P
		rest = rest[3:]
	case strings.HasPrefix(rest, "col"):
		c.Comm = COL
		rest = rest[3:]
	case strings.HasPrefix(rest, "rma"):
		c.Comm = RMA
		rest = rest[3:]
	case strings.HasPrefix(rest, "cr"):
		c.Comm = CR
		rest = rest[2:]
	default:
		return c, fmt.Errorf("core: unknown comm method in %q", s)
	}
	switch rest {
	case "s", "":
		c.Overlap = Sync
	case "a":
		c.Overlap = NonBlocking
	case "t":
		c.Overlap = Thread
	default:
		return c, fmt.Errorf("core: unknown overlap strategy %q", rest)
	}
	return c, nil
}
