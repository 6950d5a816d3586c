package trace

// Golden-file coverage for every map-keyed serialization path: the same
// fixture must serialize byte-identically across runs (and Go versions'
// map iteration orders), and parse back to the same values. Regenerate
// with `go test ./internal/trace -run Golden -update`.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenMonitor builds a fixed Monitor with counters on several ranks —
// enough map keys that an unsorted emission path would flake.
func goldenMonitor() *Monitor {
	m := NewMonitor()
	for r := 0; r < 3; r++ {
		rl := m.Rank(r)
		rl.Record("application", "steady-phase", 0, 1.25+0.1*float64(r))
		rl.Record("malleability", "reconfig-0", 1.5, 2.75)
		rl.Add("iterations", float64(10+r))
		rl.Add("msgs/sent", float64(4*r))
		rl.Add("bytes/recv", float64(1024*r))
		rl.Add("collectives", 2)
	}
	return m
}

// goldenRecorder builds a fixed event log covering every metric family:
// per-op and per-phase maps, fault counters, and per-rank stats.
func goldenRecorder() *Recorder {
	r := NewRecorder()
	r.Record(Event{Kind: EvCompute, Rank: 0, Start: 0, End: 0.5, Peer: -1, Tag: -1, Comm: -1, Op: "compute"})
	r.Record(Event{Kind: EvCompute, Rank: 1, Start: 0, End: 0.75, Peer: -1, Tag: -1, Comm: -1, Op: "compute"})
	r.Record(Event{Kind: EvSend, Rank: 0, Start: 1, End: 1, Peer: 2, Tag: 77, Comm: 1, Bytes: 100, Op: "Isend", Phase: PhaseRedistConst})
	r.Record(Event{Kind: EvRecv, Rank: 2, Start: 1.2, End: 1.2, Peer: 0, Tag: 77, Comm: 1, Bytes: 100, Op: "recv", Phase: PhaseRedistConst})
	r.Record(Event{Kind: EvSend, Rank: 0, Start: 2, End: 2, Peer: 2, Tag: 79, Comm: 1, Bytes: 40, Op: "Isend", Phase: PhaseRedistVar})
	r.Record(Event{Kind: EvRecv, Rank: 1, Start: 2.5, End: 2.5, Peer: 2, Tag: -1, Comm: 1, Bytes: 60, Op: "Get", Phase: PhaseRedistVar})
	r.Record(Event{Kind: EvColl, Rank: 1, Start: 3, End: 3.5, Peer: -1, Tag: -1, Comm: 1, Bytes: 8, Op: "Bcast"})
	r.Record(Event{Kind: EvPhase, Rank: 0, Start: 1, End: 2, Peer: -1, Tag: -1, Comm: -1, Op: PhaseSpawn, Phase: PhaseSpawn})
	r.Record(Event{Kind: EvPhase, Rank: 0, Start: 4, End: 4.25, Peer: -1, Tag: -1, Comm: -1, Op: PhaseHalt, Phase: PhaseHalt})
	r.Record(Event{Kind: EvFault, Rank: 2, Start: 3.8, End: 3.8, Peer: -1, Tag: -1, Comm: -1, Op: "crash"})
	r.Record(Event{Kind: EvFault, Rank: 1, Start: 3.9, End: 3.9, Peer: -1, Tag: -1, Comm: -1, Op: "timeout"})
	return r
}

func TestMonitorCSVGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenMonitor().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenMonitor().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Monitor CSV not deterministic across serializations")
	}
	checkGolden(t, "monitor.csv", a.Bytes())

	// Round-trip: the counter rows must parse back under the span header.
	rows, err := csv.NewReader(bytes.NewReader(a.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	counters := 0
	for _, row := range rows[1:] {
		if row[1] != "counter" {
			continue
		}
		counters++
		if row[4] != "" || row[5] != "" {
			t.Fatalf("counter row has span fields: %v", row)
		}
	}
	if counters != 12 {
		t.Fatalf("counter rows = %d, want 12 (3 ranks x 4 counters)", counters)
	}
}

// monitorJSON encodes m's rank logs as indented JSON.
func monitorJSON(t *testing.T, m *Monitor) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m.Ranks()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMonitorJSONGolden(t *testing.T) {
	buf := monitorJSON(t, goldenMonitor())
	checkGolden(t, "monitor.json", buf)

	var back []RankLog
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || back[2].Counters["iterations"] != 12 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestMetricsCSVGolden(t *testing.T) {
	var a, b bytes.Buffer
	if err := goldenRecorder().Metrics().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := goldenRecorder().Metrics().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("RunMetrics CSV not deterministic across serializations")
	}
	checkGolden(t, "metrics.csv", a.Bytes())

	// The map-keyed scopes must appear in sorted order.
	text := a.String()
	for _, pair := range [][2]string{
		{"fault:crash", "fault:timeout"},
		{"op:Bcast", "op:Get"},
		{"op:Get", "op:Isend"},
	} {
		if strings.Index(text, pair[0]) >= strings.Index(text, pair[1]) {
			t.Fatalf("scope %q not before %q in CSV", pair[0], pair[1])
		}
	}
}

func TestMetricsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRecorder().Metrics().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.json", buf.Bytes())

	var back RunMetrics
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Faults["crash"] != 1 || back.MsgsByOp["Isend"] != 2 {
		t.Fatalf("round trip = %+v", back)
	}
}
