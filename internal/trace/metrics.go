package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// PhaseMetrics aggregates the wire traffic tagged with one reconfiguration
// phase ("" is application traffic). Msgs and Bytes count messages put on
// the wire: point-to-point sends plus one-sided Gets (counted at the
// origin), so collective traffic — which is built from sends — is counted
// once.
type PhaseMetrics struct {
	Phase string `json:"phase"`
	Msgs  int64  `json:"msgs"`
	Bytes int64  `json:"bytes"`
}

// RankMetrics are one rank's counters over the whole run.
type RankMetrics struct {
	Rank        int     `json:"rank"`
	SendMsgs    int64   `json:"sendMsgs"`
	SendBytes   int64   `json:"sendBytes"`
	RecvMsgs    int64   `json:"recvMsgs"`
	RecvBytes   int64   `json:"recvBytes"`
	Collectives int64   `json:"collectives"`
	ComputeSecs float64 `json:"computeSecs"`
}

// RunMetrics are the per-run counters derived from an event log, matching
// the paper's §4 decomposition of a reconfiguration.
type RunMetrics struct {
	Ranks  []RankMetrics  `json:"ranks"`
	Phases []PhaseMetrics `json:"phases"`
	// MsgsByOp counts wire messages by issuing operation (Isend, Get, ...).
	MsgsByOp map[string]int64 `json:"msgsByOp"`

	// Stage timers: earliest start to latest end of the named phase across
	// ranks, in virtual seconds. TSpawn is stage 2 (T_spawn); TRedistConst
	// and TRedistVar split stage 3 into the overlapped constant-data pass
	// and the halted variable-data pass (T_redist); THalt spans the source
	// halt through the handover.
	TSpawn       float64 `json:"tSpawn"`
	TRedistConst float64 `json:"tRedistConst"`
	TRedistVar   float64 `json:"tRedistVar"`
	THalt        float64 `json:"tHalt"`
	// TProtect and TRecovery span the resilient protocol's checkpoint pass
	// and its post-fault recovery rounds; both are zero for fault-free runs.
	TProtect  float64 `json:"tProtect,omitempty"`
	TRecovery float64 `json:"tRecovery,omitempty"`

	// Faults counts EvFault records by action name (crash, detect, drop,
	// delay, spawn-fail, degrade, abort, replan, ...); nil when none occurred.
	Faults map[string]int64 `json:"faults,omitempty"`

	// BytesConst and BytesVar are the bytes redistributed asynchronously
	// (while sources iterate) and with the sources halted; MsgsConst and
	// MsgsVar are the corresponding message counts.
	BytesConst int64 `json:"bytesConst"`
	BytesVar   int64 `json:"bytesVar"`
	MsgsConst  int64 `json:"msgsConst"`
	MsgsVar    int64 `json:"msgsVar"`
	// OverlapEfficiency is BytesConst / (BytesConst + BytesVar): the
	// fraction of redistributed data moved without halting the sources.
	OverlapEfficiency float64 `json:"overlapEfficiency"`
}

// OnWire reports whether the event represents one message put on the wire,
// and its byte count. Point-to-point sends count at issue; one-sided Gets
// have no send event and count at the origin's delivery. Collective traffic
// is built from sends, so it is counted once. RunMetrics and obs.Stream
// both count the wire through it.
func OnWire(ev Event) (int64, bool) {
	switch {
	case ev.Kind == EvSend:
		return ev.Bytes, true
	case ev.Kind == EvRecv && ev.Op == "Get":
		return ev.Bytes, true
	}
	return 0, false
}

// Metrics derives the per-rank and per-run counters from the event log.
func (r *Recorder) Metrics() RunMetrics { return metricsOf(r.segments()) }

// metricsOf derives the counters from a log held in consecutive segments.
func metricsOf(segs [][]Event) RunMetrics {
	m := RunMetrics{MsgsByOp: map[string]int64{}}
	perRank := map[int]*RankMetrics{}
	rank := func(id int) *RankMetrics {
		rm, ok := perRank[id]
		if !ok {
			rm = &RankMetrics{Rank: id}
			perRank[id] = rm
		}
		return rm
	}
	perPhase := map[string]*PhaseMetrics{}
	spans := map[string]*window{}

	for _, seg := range segs {
		for _, ev := range seg {
			rm := rank(ev.Rank)
			switch ev.Kind {
			case EvSend:
				rm.SendMsgs++
				rm.SendBytes += ev.Bytes
			case EvRecv:
				rm.RecvMsgs++
				rm.RecvBytes += ev.Bytes
			case EvColl:
				rm.Collectives++
			case EvCompute:
				rm.ComputeSecs += ev.Duration()
			case EvPhase:
				w, ok := spans[ev.Op]
				if !ok {
					w = &window{}
					spans[ev.Op] = w
				}
				w.grow(ev.Start, ev.End)
			case EvFault:
				if m.Faults == nil {
					m.Faults = map[string]int64{}
				}
				m.Faults[ev.Op]++
			}
			if bytes, ok := OnWire(ev); ok {
				m.MsgsByOp[ev.Op]++
				pm, ok := perPhase[ev.Phase]
				if !ok {
					pm = &PhaseMetrics{Phase: ev.Phase}
					perPhase[ev.Phase] = pm
				}
				pm.Msgs++
				pm.Bytes += bytes
			}
		}
	}

	for _, rm := range perRank {
		m.Ranks = append(m.Ranks, *rm)
	}
	sort.Slice(m.Ranks, func(i, j int) bool { return m.Ranks[i].Rank < m.Ranks[j].Rank })
	for _, pm := range perPhase {
		m.Phases = append(m.Phases, *pm)
	}
	sort.Slice(m.Phases, func(i, j int) bool { return m.Phases[i].Phase < m.Phases[j].Phase })

	stage := func(name string) float64 {
		if w, ok := spans[name]; ok {
			return w.hi - w.lo
		}
		return 0
	}
	m.TSpawn = stage(PhaseSpawn)
	m.TRedistConst = stage(PhaseRedistConst)
	m.TRedistVar = stage(PhaseRedistVar)
	m.THalt = stage(PhaseHalt)
	m.TProtect = stage(PhaseProtect)
	m.TRecovery = stage(PhaseRecovery)

	if pm, ok := perPhase[PhaseRedistConst]; ok {
		m.BytesConst, m.MsgsConst = pm.Bytes, pm.Msgs
	}
	if pm, ok := perPhase[PhaseRedistVar]; ok {
		m.BytesVar, m.MsgsVar = pm.Bytes, pm.Msgs
	}
	if total := m.BytesConst + m.BytesVar; total > 0 {
		m.OverlapEfficiency = float64(m.BytesConst) / float64(total)
	}
	return m
}

// WriteJSON emits the metrics as indented JSON.
func (m RunMetrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteCSV emits the metrics as scope,metric,value rows: run-level
// counters, one scope per phase, and one scope per rank. The first write
// error is returned.
func (m RunMetrics) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	var firstErr error
	row := func(scope, metric string, value any) {
		if err := cw.Write([]string{scope, metric, fmt.Sprintf("%v", value)}); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := cw.Write([]string{"scope", "metric", "value"}); err != nil {
		return err
	}
	row("run", "t_spawn", fmt.Sprintf("%.9g", m.TSpawn))
	row("run", "t_redist_const", fmt.Sprintf("%.9g", m.TRedistConst))
	row("run", "t_redist_var", fmt.Sprintf("%.9g", m.TRedistVar))
	row("run", "t_halt", fmt.Sprintf("%.9g", m.THalt))
	row("run", "t_protect", fmt.Sprintf("%.9g", m.TProtect))
	row("run", "t_recovery", fmt.Sprintf("%.9g", m.TRecovery))
	row("run", "bytes_const", m.BytesConst)
	row("run", "bytes_var", m.BytesVar)
	row("run", "msgs_const", m.MsgsConst)
	row("run", "msgs_var", m.MsgsVar)
	row("run", "overlap_efficiency", fmt.Sprintf("%.9g", m.OverlapEfficiency))
	ops := make([]string, 0, len(m.MsgsByOp))
	for op := range m.MsgsByOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		row("op:"+op, "msgs", m.MsgsByOp[op])
	}
	faults := make([]string, 0, len(m.Faults))
	for op := range m.Faults {
		faults = append(faults, op)
	}
	sort.Strings(faults)
	for _, op := range faults {
		row("fault:"+op, "count", m.Faults[op])
	}
	for _, pm := range m.Phases {
		name := pm.Phase
		if name == "" {
			name = "application"
		}
		row("phase:"+name, "msgs", pm.Msgs)
		row("phase:"+name, "bytes", pm.Bytes)
	}
	for _, rm := range m.Ranks {
		scope := fmt.Sprintf("rank:%d", rm.Rank)
		row(scope, "send_msgs", rm.SendMsgs)
		row(scope, "send_bytes", rm.SendBytes)
		row(scope, "recv_msgs", rm.RecvMsgs)
		row(scope, "recv_bytes", rm.RecvBytes)
		row(scope, "collectives", rm.Collectives)
		row(scope, "compute_secs", fmt.Sprintf("%.9g", rm.ComputeSecs))
	}
	if firstErr != nil {
		return firstErr
	}
	cw.Flush()
	return cw.Error()
}
