package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// openResults loads a recorded sweep CSV from the repository's results
// directory, skipping when absent (fresh checkouts regenerate them with
// cmd/redistsweep).
func openResults(t *testing.T, name string) Measurements {
	t.Helper()
	path := filepath.Join("..", "..", "results", name)
	f, err := os.Open(path)
	if err != nil {
		t.Skipf("recorded results %s not present: %v", name, err)
	}
	defer f.Close()
	m, err := ParseCSV(f)
	if err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	return m
}

// TestRecordedSweepShapes replays the paper's headline checks against the
// recorded full sweeps, guarding the shipped artifacts against drift.
func TestRecordedSweepShapes(t *testing.T) {
	for _, name := range []string{"eth_all.csv", "ib_all.csv"} {
		t.Run(name, func(t *testing.T) {
			m := openResults(t, name)
			if len(m) != 42*12 {
				t.Fatalf("cells = %d, want 504", len(m))
			}
			// Merge COLS beats Baseline COLS in every recorded pair.
			for _, p := range AllPairs() {
				merge := MedianReconfig(m[CellKey{Pair: p, Config: core.Config{Spawn: core.Merge, Comm: core.COL}}])
				base := MedianReconfig(m[CellKey{Pair: p, Config: core.Config{Spawn: core.Baseline, Comm: core.COL}}])
				if merge >= base {
					t.Errorf("%d->%d: Merge COLS %.3f not below Baseline COLS %.3f", p.NS, p.NT, merge, base)
				}
			}
			// The figure emitters handle the full data set.
			sp, ref := SpeedupSeries(m, append(From160(), To160()...))
			if len(ref.Points) != 12 {
				t.Fatalf("baseline reference has %d points", len(ref.Points))
			}
			best, _ := MaxSpeedup(sp)
			if best < 1.05 || best > 1.5 {
				t.Fatalf("recorded max speedup %.3f outside the plausible band", best)
			}
			bm := BestMethodMap(m, AllPairs(), core.AllConfigs(), TotalMetric)
			if _, n := bm.TopWinner(); n < 21 {
				t.Fatalf("top winner holds only %d of 42 cells", n)
			}
		})
	}
}

// TestRecordedFiguresMatchText renders each recorded full sweep and
// compares the text with the committed figures file byte for byte, so
// the rendered figures cannot drift from the sweeps they come from.
func TestRecordedFiguresMatchText(t *testing.T) {
	for _, net := range []string{"eth", "ib"} {
		t.Run(net, func(t *testing.T) {
			m := openResults(t, net+"_all.csv")
			want, err := os.ReadFile(filepath.Join("..", "..", "results", net+"_figures.txt"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := WriteFigures(&got, m); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("rendering %s_all.csv differs from results/%s_figures.txt; "+
					"regenerate with go run ./cmd/figures -in results/%s_all.csv", net, net, net)
			}
		})
	}
}
