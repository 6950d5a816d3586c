package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/trace"
)

// span is one benchmark-side interval around a call into a layer. Parent
// is the id of the span that caused it (0: none). Times are host seconds
// since the traced pass began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer collects the traced pass: spans, the merged sink counts, the
// host time attributed to virtual stages, and per-layer values the
// workloads fill in. Cells on different workers call it concurrently.
type tracer struct {
	t0 time.Time

	mu        sync.Mutex
	spans     []span
	layer     map[string]float64
	counts    map[string]int64 // events by "kind/op"
	maxRung   int
	wireBytes int64
	hostStage map[string]float64
	peakLive  float64
	quantile  []string // histogram quantile checks that failed
}

func newTracer() *tracer {
	return &tracer{
		t0: time.Now(), layer: map[string]float64{}, counts: map[string]int64{},
		hostStage: map[string]float64{}, maxRung: -1,
	}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// add accumulates a per-layer value.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.layer[name] += v
}

// addCounters merges a telemetry snapshot's counters into the sink counts.
func (t *tracer) addCounters(prefix string, snap obs.Snapshot) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, kv := range snap.Counters {
		t.counts[prefix+"/"+kv.Key] += kv.Value
	}
}

// layerSink is the benchmark's trace.Sink for one cell. It counts events
// by kind and op, stamps host time against each event (the host time
// since the previous event is charged to the event's virtual stage), and
// keeps the exact compute-span durations for the histogram check.
type layerSink struct {
	counts    map[string]int64
	maxRung   int
	wireBytes int64
	host      map[string]time.Duration
	last      time.Time
	compute   []float64
}

func (s *layerSink) Record(ev trace.Event) {
	now := time.Now()
	stage := ev.Phase
	if ev.Kind == trace.EvPhase {
		stage = ev.Op
	}
	if stage == "" {
		stage = "iterate"
	}
	if !s.last.IsZero() {
		s.host[stage] += now.Sub(s.last)
	}
	s.last = now
	s.counts[ev.Kind.String()+"/"+ev.Op]++
	switch ev.Kind {
	case trace.EvSend:
		s.wireBytes += ev.Bytes
	case trace.EvCompute:
		s.compute = append(s.compute, ev.Duration())
	case trace.EvFault:
		if ev.Op == "escalate" && ev.Tag > s.maxRung {
			s.maxRung = ev.Tag
		}
	}
}

// cellTrace is one cell's sink teed with an obs.Stream, so the traced
// pass pays the streaming-telemetry cost as well.
type cellTrace struct {
	ls     *layerSink
	stream *obs.Stream
	sink   trace.Sink
}

func (t *tracer) cell() *cellTrace {
	ls := &layerSink{counts: map[string]int64{}, host: map[string]time.Duration{}, maxRung: -1}
	st := obs.NewStream()
	return &cellTrace{ls: ls, stream: st, sink: trace.Tee(ls, st)}
}

// done merges a finished cell into the tracer and checks the stream's
// compute-span quantiles against the exact values of the same events.
func (t *tracer) done(c *cellTrace, label string) {
	errs := checkQuantiles(c.stream.Snapshot(), c.ls.compute, label)
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range c.ls.counts {
		t.counts[k] += v
	}
	for k, v := range c.ls.host {
		t.hostStage[k] += v.Seconds()
	}
	t.wireBytes += c.ls.wireBytes
	t.maxRung = max(t.maxRung, c.ls.maxRung)
	t.peakLive = math.Max(t.peakLive, c.stream.Gauge(core.PeakLiveBytesGauge))
	t.quantile = append(t.quantile, errs...)
}

// checkQuantiles compares the stream's span/compute p50, p90 and p99 with
// the exact order statistics (rank ceil(q*n), the obs convention).
func checkQuantiles(snap obs.Snapshot, exact []float64, label string) []string {
	h, ok := snap.HistNamed("span/compute")
	if !ok || len(exact) == 0 {
		return nil
	}
	if h.Count != uint64(len(exact)) {
		return []string{fmt.Sprintf("%s: span/compute holds %d samples, sink saw %d", label, h.Count, len(exact))}
	}
	s := append([]float64(nil), exact...)
	sort.Float64s(s)
	var out []string
	for _, q := range []struct {
		q   float64
		est float64
	}{{0.5, h.P50}, {0.9, h.P90}, {0.99, h.P99}} {
		rank := int(math.Ceil(q.q * float64(len(s))))
		want := s[min(max(rank, 1), len(s))-1]
		if want == 0 {
			if q.est != 0 {
				out = append(out, fmt.Sprintf("%s: p%g = %g, exact 0", label, 100*q.q, q.est))
			}
			continue
		}
		if rel := math.Abs(q.est-want) / want; rel > obs.RelErrBound*(1+1e-9) {
			out = append(out, fmt.Sprintf("%s: p%g = %g, exact %g (relative error %.4f > %.4f)",
				label, 100*q.q, q.est, want, rel, obs.RelErrBound))
		}
	}
	return out
}

// countsDigest hashes the merged sink counts; traced runs of one input
// must repeat it exactly.
func (t *tracer) countsDigest() string {
	var d digest
	for _, k := range sortedKeys(t.counts) {
		d.add("%s %d", k, t.counts[k])
	}
	d.add("bytes %d rung %d", t.wireBytes, t.maxRung)
	return d.sum()
}

// tracedPass measures one untraced round as the overhead base, reruns the
// workload under the tracer with a CPU profile, repeats it at -j 1 where
// the workload uses the worker pool, runs the layer probes, and fills the
// per-layer metrics.
func tracedPass(w bench, res *result) error {
	workers := harness.DefaultWorkers()
	in, err := w.setup()
	if err != nil {
		return fmt.Errorf("%s set-up: %w", w.name(), err)
	}
	t0 := time.Now()
	base, err := w.round(in, workers, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name(), err)
	}
	baseWall := time.Since(t0).Seconds()

	t := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	t1 := time.Now()
	root := t.begin("round "+w.name(), 0)
	rr, err := w.traced(t, root, workers)
	t.end(root)
	tracedWall := time.Since(t1).Seconds()
	pprof.StopCPUProfile()
	if err != nil {
		return fmt.Errorf("%s traced: %w", w.name(), err)
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = rr.attempted, rr.failed
	for _, e := range rr.errs {
		res.fail("%s", e)
	}
	for _, e := range t.quantile {
		res.fail("histogram quantile: %s", e)
	}
	if err := writePlanFiles(res, rr.failures); err != nil {
		return err
	}
	if !sameDigests(base.digests, rr.digests) {
		res.fail("traced digests %s differ from untraced %s: the sink changed the simulation", rr.digest, base.digest)
	}

	poolWorkers, speedup := 1, 1.0
	if _, serial := w.(scaleShrink); !serial {
		poolWorkers = workers
		t2 := time.Now()
		seq, err := w.round(in, 1, nil)
		if err != nil {
			return fmt.Errorf("%s -j 1: %w", w.name(), err)
		}
		speedup = time.Since(t2).Seconds() / baseWall
		if seq.digest != base.digest {
			res.fail("-j 1 digest %s differs from -j %d digest %s", seq.digest, workers, base.digest)
		}
	}
	var busy float64
	for _, c := range base.cells {
		if !math.IsInf(c, 0) {
			busy += c
		}
	}

	m := map[string]float64{}
	for _, d := range perLayerMetrics() {
		m[d.Name] = 0
	}
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	for k, v := range t.layer {
		m[k] = v
	}
	kinds := map[string]int64{}
	faults := map[string]int64{}
	for k, v := range t.counts {
		kind, op, _ := strings.Cut(k, "/")
		kinds[kind] += v
		if kind == trace.EvFault.String() {
			faults[op] += v
		}
	}
	for _, c := range []struct{ metric, kind string }{
		{"mpi.sends", trace.EvSend.String()}, {"mpi.recvs", trace.EvRecv.String()},
		{"mpi.colls", trace.EvColl.String()}, {"mpi.barriers", trace.EvBarrier.String()},
		{"mpi.spawns", trace.EvSpawn.String()}, {"ps.computes", trace.EvCompute.String()},
	} {
		m[c.metric] = float64(kinds[c.kind])
	}
	m["mpi.bytes"] = float64(t.wireBytes)
	for _, op := range []string{"detect", "replan", "escalate", "extend", "drop", "crash"} {
		m["fault."+op] = float64(faults[op])
	}
	m["fault.max_rung"] = float64(t.maxRung)
	for _, st := range coreStages {
		m["core.host_s."+st] = t.hostStage[st]
	}
	m["synthapp.host_s.iterate"] = t.hostStage["iterate"]
	m["core.peak_live_bytes"] = t.peakLive
	m["harness.pool_busy"] = busy / (baseWall * float64(poolWorkers))
	m["harness.parallel_speedup"] = speedup
	m["obs.trace_overhead"] = tracedWall / baseWall

	// Return the workload's heap before the probes time anything.
	debug.FreeOSMemory()
	for _, p := range runProbes(t) {
		m[p.name] = p.value
	}

	res.Metrics = map[string]metric{}
	for _, d := range perLayerMetrics() {
		res.Metrics[d.Name] = metric{m[d.Name], d.Unit}
	}
	res.Digests = append(rr.digests, digestCheck{Name: "sink-counts", Value: t.countsDigest(), SeedFree: rr.seedFree()})
	return writeSpans(res, t)
}

// coreStages are the reconfiguration stages host time is attributed to.
var coreStages = []string{
	trace.PhaseSpawn, trace.PhaseRedistConst, trace.PhaseRedistVar,
	trace.PhaseHalt, trace.PhaseProtect, trace.PhaseRecovery,
}

// seedFree reports whether the round's inputs ignore the input seed.
func (rr roundResult) seedFree() bool {
	for _, d := range rr.digests {
		if !d.SeedFree {
			return false
		}
	}
	return true
}

// sameDigests reports whether every digest of want appears in got with
// the same value.
func sameDigests(want, got []digestCheck) bool {
	for _, w := range want {
		found := false
		for _, g := range got {
			if g.Name == w.Name {
				found = g.Value == w.Value
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func writeSpans(res *result, t *tracer) error {
	dir := filepath.Join(outDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%d.json", res.Workload, res.Seed, time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// writePlanFiles saves every failing chaos plan as a fault.PlanFile that
// `faultsweep -plan FILE` replays.
func writePlanFiles(res *result, failures []planFailure) error {
	if len(failures) == 0 {
		return nil
	}
	dir := filepath.Join(outDir, "plans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range failures {
		b, err := f.file.Marshal()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-input%d-%s.json", res.Workload, res.InputSeed, f.name))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("failing plan written to %s\n", path)
	}
	return nil
}
