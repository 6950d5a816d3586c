package harness

// Paper-scale behaviour golden: the 24 from160 synchronous cells of the
// paper's CG emulation on Ethernet and on Infiniband (rep 0), re-simulated
// and compared with testdata/paper_golden.txt as exact float bits. A performance change must
// leave the file byte-identical; only an intended behaviour change
// regenerates it, with `go test ./internal/harness -run TestPaperGolden
// -update`.
//
// The file pins today's Baseline COLS values, which have drifted from
// results/eth_all.csv since the sparse size announcement in core/col.go
// replaced Algorithm 2's fixed-size MPI_Alltoall size vectors (ROADMAP,
// the paper-scale oracle item). Restoring Algorithm 2 moves those rows and
// regenerates this file on purpose.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/netmodel"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

func TestPaperGolden(t *testing.T) {
	configs := SyncConfigs()
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	var out bytes.Buffer
	for _, net := range []netmodel.Params{netmodel.Ethernet10G(), netmodel.InfinibandEDR()} {
		s := DefaultSetup(net)
		s.Reps = 1
		s.Workers = 2
		m, err := s.Sweep(From160(), configs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range From160() {
			for _, cfg := range configs {
				key := CellKey{Pair: p, Config: cfg}
				r := m[key][0]
				fmt.Fprintf(&out, "%s %s reconfig=%s total=%s iter_before=%s iter_during=%s iter_after=%s overlapped=%d\n",
					net.Name, key, bits(r.ReconfigTime()), bits(r.TotalTime),
					bits(r.IterTimeBefore), bits(r.IterTimeDuring), bits(r.IterTimeAfter), r.OverlappedIterations)
			}
		}
	}

	path := filepath.Join("testdata", "paper_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gl, wl := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := range gl {
			if i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				var w []byte
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("paper golden drifted at line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("paper golden drifted: got %d lines, want %d", len(gl), len(wl))
	}
}
