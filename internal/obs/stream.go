package obs

import (
	"sort"

	"repro/internal/trace"
)

// Stream is the bounded-memory streaming telemetry sink: it implements
// trace.Sink and folds every event into fixed-size aggregates the moment
// it is recorded — log-bucketed histograms for span durations, wire
// message sizes, delivery (RTT) samples, and recovery-rung latencies;
// monotone counters for event kinds, wire traffic per phase, fault
// actions, and rung escalations; per-rank activity totals; and a
// flight-recorder ring for post-mortems. Memory is constant in the event
// count: O(histograms + ring capacity + ranks).
//
// Like the full Recorder, a Stream is single-threaded by construction
// (the simulation kernel runs one process at a time). Campaign-level
// aggregation across worker goroutines goes through Merge under the
// pool's serialized completion callbacks.
type Stream struct {
	flight *FlightRecorder

	hCompute *Hist // EvCompute span durations
	hBarrier *Hist // EvBarrier span durations
	hColl    *Hist // EvColl span durations
	hSpawn   *Hist // EvSpawn span durations
	hRTT     *Hist // EvRecv issue-to-delivery durations (RTT samples)
	hBytes   *Hist // wire message sizes in bytes

	hPhase map[string]*Hist // EvPhase span durations by stage name
	spare  []*Hist          // reset phase hists parked for reuse across Reset cycles
	hRung  [5]*Hist         // recovery-stage span durations by active rung

	counters map[string]int64
	gauges   map[string]float64 // high-water gauges: SetGauge keeps the max

	// Per-event counts kept apart from counters so that Record builds no
	// key string: fold adds them into counters, under "events/<kind>",
	// "wire/msgs/<phase>", "wire/bytes/<phase>" and "msgs/op/<op>", before
	// anything reads counters.
	kinds [1 << 8]int64         // by trace.EventKind, a uint8
	wire  map[string]*wireCount // by phase tag
	ops   map[string]int64      // wire messages by Op

	ranks map[int]*RankTelemetry

	events      uint64
	first, last float64
	curRung     int
}

// wireCount is one phase's wire traffic.
type wireCount struct{ msgs, bytes int64 }

// RankTelemetry is one rank's streaming activity totals.
type RankTelemetry struct {
	Rank  int     `json:"rank"`
	First float64 `json:"first"` // first recorded activity
	Last  float64 `json:"last"`  // last recorded activity
	// Busy is the summed compute and spawn span time; Utilization in the
	// snapshot is Busy over the rank's lifespan.
	Busy      float64 `json:"busy"`
	SendMsgs  int64   `json:"sendMsgs"`
	SendBytes int64   `json:"sendBytes"`
	RecvMsgs  int64   `json:"recvMsgs"`
	RecvBytes int64   `json:"recvBytes"`
}

// NewStream returns an empty streaming sink.
func NewStream() *Stream {
	s := &Stream{
		flight:   NewFlightRecorder(),
		hCompute: NewHist(), hBarrier: NewHist(), hColl: NewHist(),
		hSpawn: NewHist(), hRTT: NewHist(), hBytes: NewHist(),
		hPhase:   map[string]*Hist{},
		counters: map[string]int64{},
		gauges:   map[string]float64{},
		wire:     map[string]*wireCount{},
		ops:      map[string]int64{},
		ranks:    map[int]*RankTelemetry{},
	}
	for i := range s.hRung {
		s.hRung[i] = NewHist()
	}
	return s
}

func (s *Stream) rank(id int) *RankTelemetry {
	rt, ok := s.ranks[id]
	if !ok {
		rt = &RankTelemetry{Rank: id, First: -1, Last: -1}
		s.ranks[id] = rt
	}
	return rt
}

// phaseKey maps an event's phase tag to its counter key ("" is
// application traffic).
func phaseKey(phase string) string {
	if phase == "" {
		return "app"
	}
	return phase
}

// Record implements trace.Sink: one event folds into the aggregates.
func (s *Stream) Record(ev trace.Event) {
	s.flight.Record(ev)
	if s.events == 0 || ev.Start < s.first {
		s.first = ev.Start
	}
	if s.events == 0 || ev.End > s.last {
		s.last = ev.End
	}
	s.events++
	s.kinds[ev.Kind]++

	rt := s.rank(ev.Rank)
	if rt.First < 0 || ev.Start < rt.First {
		rt.First = ev.Start
	}
	if ev.End > rt.Last {
		rt.Last = ev.End
	}

	d := ev.Duration()
	switch ev.Kind {
	case trace.EvCompute:
		s.hCompute.Observe(d)
		rt.Busy += d
	case trace.EvBarrier:
		s.hBarrier.Observe(d)
	case trace.EvColl:
		s.hColl.Observe(d)
	case trace.EvSpawn:
		s.hSpawn.Observe(d)
		rt.Busy += d
	case trace.EvSend:
		rt.SendMsgs++
		rt.SendBytes += ev.Bytes
	case trace.EvRecv:
		rt.RecvMsgs++
		rt.RecvBytes += ev.Bytes
		s.hRTT.Observe(d)
	case trace.EvPhase:
		s.phaseHist(ev.Op).Observe(d)
		if ev.Op == trace.PhaseRecovery {
			rung := s.curRung
			if rung < 0 {
				rung = 0
			}
			if rung >= len(s.hRung) {
				rung = len(s.hRung) - 1
			}
			s.hRung[rung].Observe(d)
		}
	case trace.EvFault:
		s.counters["fault/"+ev.Op]++
		if ev.Op == "escalate" && ev.Tag >= 0 {
			s.counters[rungKey(ev.Tag)]++
			if ev.Tag > s.curRung {
				s.curRung = ev.Tag
			}
		}
	}

	// Wire accounting is trace.RunMetrics': one predicate decides what
	// counts as a message on the wire.
	if bytes, ok := trace.OnWire(ev); ok {
		s.wireCount(ev.Phase).add(1, bytes)
		s.ops[ev.Op]++
		s.hBytes.Observe(float64(bytes))
	}
}

func (s *Stream) wireCount(phase string) *wireCount {
	c := s.wire[phase]
	if c == nil {
		c = &wireCount{}
		s.wire[phase] = c
	}
	return c
}

func (c *wireCount) add(msgs, bytes int64) {
	c.msgs += msgs
	c.bytes += bytes
}

// fold moves the per-event counts into counters and clears them. Only
// kinds, phases and ops that were seen get a key, as when Record added to
// counters directly, so snapshots are unchanged.
func (s *Stream) fold() {
	for k, n := range s.kinds {
		if n != 0 {
			s.counters["events/"+trace.EventKind(k).String()] += n
		}
	}
	clear(s.kinds[:])
	for phase, c := range s.wire {
		pk := phaseKey(phase)
		s.counters["wire/msgs/"+pk] += c.msgs
		s.counters["wire/bytes/"+pk] += c.bytes
	}
	clear(s.wire)
	for op, n := range s.ops {
		s.counters["msgs/op/"+op] += n
	}
	clear(s.ops)
}

func rungKey(rung int) string {
	return "rung/" + string(rune('0'+rung%10))
}

// ObserveNamed folds one scalar sample into the named histogram (surfaced
// in the snapshot as "phase/<name>") and bumps the matching
// "observe/<name>" counter. It is the entry point for layers that
// aggregate above the trace-event level — the cluster workload engine
// records job waits, bounded slowdowns, and queue depths here — and
// reuses the stream's bounded-memory and deterministic-merge machinery
// without inventing synthetic trace events. It does not count as a trace
// event and does not move the observed time envelope.
func (s *Stream) ObserveNamed(name string, v float64) {
	s.phaseHist(name).Observe(v)
	s.counters["observe/"+name]++
}

// ObserveNamedN folds n copies of one sample, exactly as n ObserveNamed
// calls would, with a single name lookup.
func (s *Stream) ObserveNamedN(name string, v float64, n int) {
	if n <= 0 {
		return
	}
	h := s.phaseHist(name)
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
	s.counters["observe/"+name] += int64(n)
}

// phaseHist returns the named phase histogram, reviving a parked one from
// the spare list before allocating. Every histogram in hPhase has at least
// one observation: Reset moves entries to the spare list rather than
// leaving zero-count keys behind, so snapshots never depend on which phase
// names a pooled stream saw in an earlier life.
func (s *Stream) phaseHist(name string) *Hist {
	h, ok := s.hPhase[name]
	if !ok {
		if n := len(s.spare); n > 0 {
			h = s.spare[n-1]
			s.spare = s.spare[:n-1]
		} else {
			h = NewHist()
		}
		s.hPhase[name] = h
	}
	return h
}

// SetGauge folds one sample into a named high-water gauge: the stored
// value is the maximum ever set, so reporting order (and rank
// interleaving) cannot change the result. The redistribution transfers
// report their per-rank peak live payload bytes here.
func (s *Stream) SetGauge(name string, v float64) {
	if cur, ok := s.gauges[name]; !ok || v > cur {
		s.gauges[name] = v
	}
}

// Gauge returns a high-water gauge's value (0 when never set).
func (s *Stream) Gauge(name string) float64 { return s.gauges[name] }

// Events returns the total number of events folded in.
func (s *Stream) Events() uint64 { return s.events }

// Makespan returns the stream's observed time envelope: latest event end
// minus earliest event start.
func (s *Stream) Makespan() float64 {
	if s.events == 0 {
		return 0
	}
	return s.last - s.first
}

// Merge folds other's aggregates into s: histograms add bucket-wise,
// counters and per-rank totals sum, and other's retained flight events
// append into s's rings (most recent survive). Campaign aggregation
// calls Merge under the sweep pool's serialized completion frontier, so
// the merged state is deterministic at any worker count.
func (s *Stream) Merge(other *Stream) {
	if other == nil || other.events == 0 {
		return
	}
	if s.events == 0 || other.first < s.first {
		s.first = other.first
	}
	if s.events == 0 || other.last > s.last {
		s.last = other.last
	}
	s.events += other.events
	s.hCompute.Merge(other.hCompute)
	s.hBarrier.Merge(other.hBarrier)
	s.hColl.Merge(other.hColl)
	s.hSpawn.Merge(other.hSpawn)
	s.hRTT.Merge(other.hRTT)
	s.hBytes.Merge(other.hBytes)
	for op, h := range other.hPhase {
		s.phaseHist(op).Merge(h)
	}
	for i := range s.hRung {
		s.hRung[i].Merge(other.hRung[i])
	}
	for k, v := range other.counters {
		s.counters[k] += v
	}
	for k, n := range other.kinds {
		s.kinds[k] += n
	}
	for phase, c := range other.wire {
		s.wireCount(phase).add(c.msgs, c.bytes)
	}
	for op, n := range other.ops {
		s.ops[op] += n
	}
	for k, v := range other.gauges {
		s.SetGauge(k, v)
	}
	for id, rt := range other.ranks {
		dst := s.rank(id)
		if dst.First < 0 || (rt.First >= 0 && rt.First < dst.First) {
			dst.First = rt.First
		}
		if rt.Last > dst.Last {
			dst.Last = rt.Last
		}
		dst.Busy += rt.Busy
		dst.SendMsgs += rt.SendMsgs
		dst.SendBytes += rt.SendBytes
		dst.RecvMsgs += rt.RecvMsgs
		dst.RecvBytes += rt.RecvBytes
	}
	for _, ev := range other.flight.Recent() {
		s.flight.recent.push(ev)
	}
	for _, ev := range other.flight.Anomalies() {
		s.flight.anomalies.push(ev)
	}
	if other.curRung > s.curRung {
		s.curRung = other.curRung
	}
}

// Reset empties the stream for reuse, keeping allocated bucket arrays and
// ring buffers (the sync.Pool contract the harness relies on).
func (s *Stream) Reset() {
	s.flight.Reset()
	s.hCompute.Reset()
	s.hBarrier.Reset()
	s.hColl.Reset()
	s.hSpawn.Reset()
	s.hRTT.Reset()
	s.hBytes.Reset()
	for k, h := range s.hPhase {
		h.Reset()
		s.spare = append(s.spare, h)
		delete(s.hPhase, k)
	}
	for i := range s.hRung {
		s.hRung[i].Reset()
	}
	for k := range s.counters {
		delete(s.counters, k)
	}
	clear(s.kinds[:])
	clear(s.wire)
	clear(s.ops)
	for k := range s.gauges {
		delete(s.gauges, k)
	}
	for k := range s.ranks {
		delete(s.ranks, k)
	}
	s.events, s.first, s.last, s.curRung = 0, 0, 0, 0
}

// MemoryBytes estimates the stream's telemetry footprint: the fixed
// histogram bucket arrays, the flight-recorder rings, and the per-rank
// and counter tables. The estimate is an accounting upper bound that is
// constant in the event count (only the O(ranks) table grows, with the
// world, not the log).
func (s *Stream) MemoryBytes() int64 {
	s.fold()
	n := s.flight.memoryBytes()
	hists := []*Hist{s.hCompute, s.hBarrier, s.hColl, s.hSpawn, s.hRTT, s.hBytes}
	for _, h := range s.hPhase {
		hists = append(hists, h)
	}
	for _, h := range s.hRung {
		hists = append(hists, h)
	}
	for _, h := range hists {
		n += h.memoryBytes()
	}
	n += int64(len(s.counters)) * 48 // key + value + bucket overhead
	n += int64(len(s.gauges)) * 48
	n += int64(len(s.ranks)) * 96
	return n
}

// sortedCounterKeys returns the counter keys in lexical order.
func (s *Stream) sortedCounterKeys() []string {
	keys := make([]string, 0, len(s.counters))
	for k := range s.counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
