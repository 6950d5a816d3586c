package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSpansAndCounters(t *testing.T) {
	m := NewMonitor()
	rl := m.Rank(3)
	end := rl.Open("application", "phase", 1.0)
	end(2.5)
	rl.Record("malleability", "reconfig-0", 2.5, 4.0)
	rl.Add("iterations", 10)
	rl.Add("iterations", 5)

	if got := m.Rank(3); got != rl {
		t.Fatal("Rank not idempotent")
	}
	if len(rl.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(rl.Spans))
	}
	if rl.Spans[0].Duration() != 1.5 {
		t.Fatalf("duration = %g, want 1.5", rl.Spans[0].Duration())
	}
	if rl.Counters["iterations"] != 15 {
		t.Fatalf("counter = %g, want 15", rl.Counters["iterations"])
	}
}

func TestRanksOrdered(t *testing.T) {
	m := NewMonitor()
	for _, r := range []int{5, 1, 3} {
		m.Rank(r)
	}
	ranks := m.Ranks()
	if len(ranks) != 3 || ranks[0].Rank != 1 || ranks[2].Rank != 5 {
		t.Fatalf("Ranks order wrong: %v", ranks)
	}
}

func TestWriteCSV(t *testing.T) {
	m := NewMonitor()
	m.Rank(0).Record("application", "phase-0-10", 0, 1.25)
	m.Rank(1).Record("application", "phase-0-10", 0, 1.5)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2", len(lines))
	}
	if lines[0] != "rank,module,name,start,end,duration" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,application,phase-0-10,0,1.25,1.25") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	m := NewMonitor()
	m.Rank(2).Record("m", "n", 1, 2)
	m.Rank(2).Add("c", 7)
	var back []RankLog
	if err := json.Unmarshal(monitorJSON(t, m), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Rank != 2 || back[0].Counters["c"] != 7 {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestSummaryAggregates(t *testing.T) {
	m := NewMonitor()
	m.Rank(0).Record("app", "phase", 0, 2)
	m.Rank(1).Record("app", "phase", 0, 4)
	m.Rank(0).Record("mall", "reconfig-0", 2, 3)
	rows := m.Summary()
	if len(rows) != 2 {
		t.Fatalf("summary rows = %d, want 2", len(rows))
	}
	// Alphabetical: app before mall.
	r := rows[0]
	if r.Module != "app" || r.Count != 2 || r.Total != 6 || r.Mean != 3 || r.Min != 2 || r.Max != 4 {
		t.Fatalf("aggregate = %+v", r)
	}
	var buf bytes.Buffer
	if err := m.WriteSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "reconfig-0") {
		t.Fatal("summary table missing row")
	}
}
