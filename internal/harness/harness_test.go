package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/netmodel"
	"repro/internal/synthapp"
)

// quickSetup shrinks everything for unit tests: small process counts, tiny
// data, two repetitions.
func quickSetup() Setup {
	s := DefaultSetup(netmodel.Ethernet10G())
	s.Reps = 2
	s.Cfg = &synthapp.Config{
		Name:              "quick",
		TotalIterations:   40,
		ReconfigIteration: 15,
		Stages: []synthapp.Stage{
			{Type: synthapp.StageCompute, Work: 0.02},
			{Type: synthapp.StageAllgatherv, Bytes: 1 << 20},
			{Type: synthapp.StageAllreduce, Bytes: 8},
		},
		Data: []synthapp.DataSpec{
			{Name: "A", Kind: synthapp.SparseData, Elements: 20000, ElemSize: 12, Constant: true, NnzPerRow: 40},
			{Name: "x", Kind: synthapp.DenseData, Elements: 20000, ElemSize: 8},
		},
		SampleIterations: 2,
		CheckpointCost:   50e-6,
	}
	return s
}

func quickPairs() []Pair {
	return []Pair{{NS: 4, NT: 8}, {NS: 8, NT: 4}}
}

func TestPairFamilies(t *testing.T) {
	if got := len(AllPairs()); got != 42 {
		t.Fatalf("AllPairs has %d entries, want 42", got)
	}
	if got := len(From160()); got != 6 {
		t.Fatalf("From160 has %d entries, want 6", got)
	}
	if got := len(To160()); got != 6 {
		t.Fatalf("To160 has %d entries, want 6", got)
	}
	for _, p := range From160() {
		if p.NS != 160 || p.NT == 160 {
			t.Fatalf("bad shrink pair %+v", p)
		}
	}
}

func TestConfigFamilies(t *testing.T) {
	if len(SyncConfigs()) != 4 {
		t.Fatalf("SyncConfigs = %d, want 4", len(SyncConfigs()))
	}
	if len(AsyncConfigs()) != 8 {
		t.Fatalf("AsyncConfigs = %d, want 8", len(AsyncConfigs()))
	}
}

func TestSweepAndFigures(t *testing.T) {
	s := quickSetup()
	configs := []core.Config{
		{Spawn: core.Baseline, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.NonBlocking},
		{Spawn: core.Merge, Comm: core.COL, Overlap: core.Thread},
	}
	m, err := s.Sweep(quickPairs(), configs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != len(quickPairs())*len(configs) {
		t.Fatalf("sweep produced %d cells, want %d", len(m), len(quickPairs())*len(configs))
	}
	for k, rs := range m {
		if len(rs) != s.Reps {
			t.Fatalf("cell %s has %d reps, want %d", k, len(rs), s.Reps)
		}
	}

	// Sync reconfiguration series include both sync configs with one point
	// per pair (the quick pairs vary NS or NT).
	series := SyncReconfigSeries(m, quickPairs())
	var nonEmpty int
	for _, sr := range series {
		if len(sr.Points) > 0 {
			nonEmpty++
			for _, pt := range sr.Points {
				if pt.Y <= 0 {
					t.Fatalf("series %s has non-positive reconfig time", sr.Label)
				}
			}
		}
	}
	if nonEmpty != 2 {
		t.Fatalf("%d non-empty sync series, want 2 (two measured sync configs)", nonEmpty)
	}

	// Alpha series: Merge COLA/COLT against Merge COLS.
	alphas := AlphaSeries(m, quickPairs())
	found := 0
	for _, sr := range alphas {
		if len(sr.Points) == 0 {
			continue
		}
		found++
		for _, pt := range sr.Points {
			if pt.Y <= 0 || pt.Y > 20 {
				t.Fatalf("alpha %s = %g implausible", sr.Label, pt.Y)
			}
		}
	}
	if found != 2 {
		t.Fatalf("%d alpha series with data, want 2", found)
	}

	// Speedups against Baseline COLS.
	speedups, baseRef := SpeedupSeries(m, quickPairs())
	if len(baseRef.Points) != 2 {
		t.Fatalf("baseline reference has %d points, want 2", len(baseRef.Points))
	}
	best, label := MaxSpeedup(speedups)
	if best <= 0 || label == "" {
		t.Fatalf("MaxSpeedup = %g %q", best, label)
	}

	// Best-method map over the measured pairs.
	bm := BestMethodMap(m, quickPairs(), configs, ReconfigMetric)
	cells := 0
	for i := range bm.Winner {
		for j := range bm.Winner[i] {
			if bm.Winner[i][j] >= 0 {
				cells++
			}
		}
	}
	if cells != 2 {
		t.Fatalf("best map filled %d cells, want 2", cells)
	}
	var buf bytes.Buffer
	bm.Render(&buf)
	if !strings.Contains(buf.String(), "legend:") {
		t.Fatal("Render output missing legend")
	}
	if _, n := bm.TopWinner(); n == 0 {
		t.Fatal("TopWinner found nothing")
	}

	// Normality screening runs.
	rejected, tested := ShapiroSummary(m, ReconfigMetric)
	if tested == 0 && s.Reps >= 3 {
		t.Fatal("ShapiroSummary tested nothing")
	}
	_ = rejected

	// CSV round trip preserves medians.
	var csv bytes.Buffer
	if err := WriteCSV(&csv, m); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(strings.NewReader(csv.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(m) {
		t.Fatalf("CSV round trip: %d cells, want %d", len(back), len(m))
	}
	for k := range m {
		a, b := MedianReconfig(m[k]), MedianReconfig(back[k])
		if diffRel(a, b) > 1e-6 {
			t.Fatalf("cell %s reconfig median %g != %g after round trip", k, a, b)
		}
		ta, tb := MedianTotal(m[k]), MedianTotal(back[k])
		if diffRel(ta, tb) > 1e-6 {
			t.Fatalf("cell %s total median %g != %g after round trip", k, ta, tb)
		}
	}

	// Series rendering is non-empty and aligned.
	var out bytes.Buffer
	RenderSeries(&out, "test", series)
	if !strings.Contains(out.String(), "== test ==") {
		t.Fatal("RenderSeries missing title")
	}
}

func diffRel(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if a == 0 {
		return d
	}
	return d / a
}

func TestRenderSeriesEmpty(t *testing.T) {
	var buf bytes.Buffer
	RenderSeries(&buf, "empty", nil)
	if !strings.Contains(buf.String(), "(no data)") {
		t.Fatal("empty render missing placeholder")
	}
}

func TestParseCSVRejectsBadInput(t *testing.T) {
	if _, err := ParseCSV(strings.NewReader("nonsense\n1,2,3")); err == nil {
		t.Fatal("bad header accepted")
	}
	if _, err := ParseCSV(strings.NewReader(CSVHeader + "\n1,2,3")); err == nil {
		t.Fatal("short row accepted")
	}
	const row = "10,120,Baseline,COL,A,0,6.5,88.7,30,0.11,0.21,0.058"
	for _, c := range []struct{ name, rows, line string }{
		{"negative ns", "-5,120,Baseline,COL,A,0,6.5,88.7,30,0.11,0.21,0.058", "line 2"},
		{"zero nt", "10,0,Baseline,COL,A,0,6.5,88.7,30,0.11,0.21,0.058", "line 2"},
		{"NaN reconfig", "10,120,Baseline,COL,A,0,NaN,88.7,30,0.11,0.21,0.058", "line 2"},
		{"infinite total", "10,120,Baseline,COL,A,0,6.5,+Inf,30,0.11,0.21,0.058", "line 2"},
		{"negative iteration time", "10,120,Baseline,COL,A,0,6.5,88.7,30,-0.11,0.21,0.058", "line 2"},
		{"negative overlapped", "10,120,Baseline,COL,A,0,6.5,88.7,-30,0.11,0.21,0.058", "line 2"},
		{"spaced field", "10 120,120,Baseline,COL,A,0,6.5,88.7,30,0.11,0.21,0.058", "line 2"},
		{"config split across columns", "10,120,merge p2p,,A,0,6.5,88.7,30,0.11,0.21,0.058", "line 2"},
		{"lower-case config", "10,120,baseline,col,a,0,6.5,88.7,30,0.11,0.21,0.058", "line 2"},
		{"repeated rep", row + "\n" + row, "line 3"},
		{"rep gap", strings.Replace(row, ",A,0,", ",A,1,", 1), "line 2"},
	} {
		_, err := ParseCSV(strings.NewReader(CSVHeader + "\n" + c.rows + "\n"))
		if err == nil || !strings.Contains(err.Error(), c.line+":") {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.line)
		}
	}
	m, err := ParseCSV(strings.NewReader(CSVHeader + "\n" + row + "\n" +
		strings.Replace(row, ",A,0,", ",A,1,", 1) + "\n"))
	if err != nil || len(m) != 1 {
		t.Fatalf("consecutive reps rejected: %v", err)
	}
}

// FuzzParseCSV checks that ParseCSV never panics on arbitrary input and
// that whatever it accepts survives WriteCSV and a second ParseCSV: the
// rewritten text parses, and writes back byte for byte. Its seed corpus
// (testdata/fuzz/FuzzParseCSV) runs as ordinary test cases.
func FuzzParseCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ParseCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteCSV(&first, m); err != nil {
			t.Fatal(err)
		}
		back, err := ParseCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("WriteCSV output rejected: %v\n%s", err, first.String())
		}
		if err := WriteCSV(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the CSV:\n%s\nvs\n%s", first.String(), second.String())
		}
	})
}

func TestSweepHandlesExtensionConfigs(t *testing.T) {
	s := quickSetup()
	s.Cluster.FSBandwidth = 1e8
	s.Cluster.FSPerStream = 5e7
	s.Cluster.FSLatency = 1e-3
	configs := []core.Config{
		{Spawn: core.Merge, Comm: core.RMA, Overlap: core.NonBlocking},
		{Spawn: core.Baseline, Comm: core.CR, Overlap: core.Sync},
	}
	m, err := s.Sweep(quickPairs()[:1], configs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, rs := range m {
		if MedianReconfig(rs) <= 0 {
			t.Fatalf("cell %s has no reconfiguration time", k)
		}
	}
	// Extension configs survive the CSV round trip too.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ParseCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(m) {
		t.Fatalf("round trip lost cells: %d vs %d", len(back), len(m))
	}
}

func TestFlagParsers(t *testing.T) {
	if _, err := ParseNet("ethernet"); err != nil {
		t.Fatal(err)
	}
	if n, _ := ParseNet("ib"); n.Name != "infiniband" {
		t.Fatal("ib alias broken")
	}
	if _, err := ParseNet("token-ring"); err == nil {
		t.Fatal("bad net accepted")
	}

	for name, want := range map[string]int{"plots": 12, "all": 42, "from160": 6, "to160": 6} {
		pairs, err := ParsePairFamily(name)
		if err != nil || len(pairs) != want {
			t.Fatalf("ParsePairFamily(%q) = %d pairs, err %v; want %d", name, len(pairs), err, want)
		}
	}
	if _, err := ParsePairFamily("diagonal"); err == nil {
		t.Fatal("bad pair family accepted")
	}

	for name, want := range map[string]int{"all": 12, "sync": 4, "async": 8, "rma": 6, "extended": 20} {
		cfgs, err := ParseConfigFamily(name)
		if err != nil || len(cfgs) != want {
			t.Fatalf("ParseConfigFamily(%q) = %d configs, err %v; want %d", name, len(cfgs), err, want)
		}
	}
	if _, err := ParseConfigFamily("bogus"); err == nil {
		t.Fatal("bad config family accepted")
	}
}

func TestShapiroSummarySkipsDegenerateCells(t *testing.T) {
	m := Measurements{}
	key := CellKey{Pair: Pair{NS: 2, NT: 4}, Config: core.Config{}}
	// Constant repetitions: allEqual guards the Shapiro-Wilk panic.
	for i := 0; i < 5; i++ {
		m[key] = append(m[key], synthapp.Result{ReconfigEnd: 1, TotalTime: 2})
	}
	rejected, tested := ShapiroSummary(m, ReconfigMetric)
	if tested != 0 || rejected != 0 {
		t.Fatalf("degenerate cell tested: %d/%d", rejected, tested)
	}
}

func TestSweepProgressCallback(t *testing.T) {
	s := quickSetup()
	s.Reps = 1
	var lines []string
	_, err := s.Sweep(quickPairs()[:1],
		[]core.Config{{Spawn: core.Merge, Comm: core.COL, Overlap: core.Sync}},
		func(l string) { lines = append(lines, l) })
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "reconfig=") {
		t.Fatalf("progress lines = %v", lines)
	}
}
