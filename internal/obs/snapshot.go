package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// SnapshotSchema versions the snapshot JSON layout so consumers
// (tracetool report, the campaign meter, CI artifacts) can detect
// incompatible changes.
const SnapshotSchema = "repro/obs-snapshot/v1"

// KV is one named monotone counter in a snapshot.
type KV struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// GaugeKV is one named high-water gauge in a snapshot.
type GaugeKV struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// NamedHist is one named histogram in a snapshot.
type NamedHist struct {
	Name string       `json:"name"`
	Hist HistSnapshot `json:"hist"`
}

// RankStat is one rank's snapshot entry: the streaming activity totals
// plus the derived utilization.
type RankStat struct {
	RankTelemetry
	Utilization float64 `json:"utilization"`
}

// Snapshot is the immutable, deterministically-serialized state of a
// Stream: everything live campaign telemetry, `tracetool report`, and
// the stream-versus-recorder tests consume. All slices are sorted
// (counters and histograms by name, ranks by id), so identical streams
// serialize to identical bytes at any worker count.
type Snapshot struct {
	Schema string `json:"schema"`
	Events uint64 `json:"events"`
	Ranks  int    `json:"ranks"`

	// TimeFirst and TimeLast bound the observed virtual-time envelope;
	// Makespan is their difference.
	TimeFirst float64 `json:"timeFirst"`
	TimeLast  float64 `json:"timeLast"`
	Makespan  float64 `json:"makespan"`

	Counters []KV `json:"counters"`
	// Gauges are the high-water gauges (e.g. the redistribution's peak
	// live payload bytes); omitted entirely when no gauge was ever set, so
	// snapshots from gauge-free runs serialize exactly as before.
	Gauges    []GaugeKV   `json:"gauges,omitempty"`
	Hists     []NamedHist `json:"hists"`
	RankStats []RankStat  `json:"rankStats"`

	// Recent and Anomalies are the flight-recorder contents: the most
	// recent events of any kind, and the retained fault events that
	// survive ring overwrite.
	Recent    []trace.Event `json:"recent"`
	Anomalies []trace.Event `json:"anomalies"`

	// TelemetryBytes is the stream's accounting memory footprint.
	TelemetryBytes int64 `json:"telemetryBytes"`
}

// Counter returns a snapshot counter's value (0 when absent).
func (s Snapshot) Counter(key string) int64 {
	i := sort.Search(len(s.Counters), func(i int) bool { return s.Counters[i].Key >= key })
	if i < len(s.Counters) && s.Counters[i].Key == key {
		return s.Counters[i].Value
	}
	return 0
}

// HistNamed returns a snapshot histogram by name (zero value when absent).
func (s Snapshot) HistNamed(name string) (HistSnapshot, bool) {
	i := sort.Search(len(s.Hists), func(i int) bool { return s.Hists[i].Name >= name })
	if i < len(s.Hists) && s.Hists[i].Name == name {
		return s.Hists[i].Hist, true
	}
	return HistSnapshot{}, false
}

// Snapshot freezes the stream into an immutable value. The result shares
// nothing with the live stream: further Record calls do not disturb it.
func (s *Stream) Snapshot() Snapshot {
	s.fold()
	snap := Snapshot{
		Schema:         SnapshotSchema,
		Events:         s.events,
		Ranks:          len(s.ranks),
		TimeFirst:      s.first,
		TimeLast:       s.last,
		Makespan:       s.Makespan(),
		Recent:         s.flight.Recent(),
		Anomalies:      s.flight.Anomalies(),
		TelemetryBytes: s.MemoryBytes(),
	}
	for _, k := range s.sortedCounterKeys() {
		snap.Counters = append(snap.Counters, KV{Key: k, Value: s.counters[k]})
	}
	gkeys := make([]string, 0, len(s.gauges))
	for k := range s.gauges {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	for _, k := range gkeys {
		snap.Gauges = append(snap.Gauges, GaugeKV{Key: k, Value: s.gauges[k]})
	}
	named := []NamedHist{
		{Name: "msg/bytes", Hist: s.hBytes.Snapshot()},
		{Name: "rtt", Hist: s.hRTT.Snapshot()},
		{Name: "span/barrier", Hist: s.hBarrier.Snapshot()},
		{Name: "span/collective", Hist: s.hColl.Snapshot()},
		{Name: "span/compute", Hist: s.hCompute.Snapshot()},
		{Name: "span/spawn", Hist: s.hSpawn.Snapshot()},
	}
	for op, h := range s.hPhase {
		named = append(named, NamedHist{Name: "phase/" + op, Hist: h.Snapshot()})
	}
	for i, h := range s.hRung {
		if h.Count() > 0 {
			named = append(named, NamedHist{Name: fmt.Sprintf("recovery/rung%d", i), Hist: h.Snapshot()})
		}
	}
	sort.Slice(named, func(i, j int) bool { return named[i].Name < named[j].Name })
	snap.Hists = named

	ids := make([]int, 0, len(s.ranks))
	for id := range s.ranks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		rt := *s.ranks[id]
		rs := RankStat{RankTelemetry: rt}
		if span := rt.Last - rt.First; span > 0 {
			rs.Utilization = rt.Busy / span
		}
		snap.RankStats = append(snap.RankStats, rs)
	}
	return snap
}

// WriteJSON emits the snapshot with a fixed field layout: identical
// snapshots produce bit-identical bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot, rejecting unknown schemas.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, fmt.Errorf("obs: bad snapshot: %w", err)
	}
	if s.Schema != SnapshotSchema {
		return s, fmt.Errorf("obs: snapshot schema %q (want %q)", s.Schema, SnapshotSchema)
	}
	return s, nil
}

// FromEvents replays a recorded event log through a fresh stream — the
// bridge that lets snapshot-only consumers (tracetool report) accept a
// full trace as input.
func FromEvents(events []trace.Event) *Stream {
	s := NewStream()
	for _, ev := range events {
		s.Record(ev)
	}
	return s
}
