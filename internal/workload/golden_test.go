package workload

// Golden-file coverage for the generators and the scheduler: the trace
// bytes of every generator, every Result field of every generator ×
// policy × backfill cell as exact float bits, and the attached telemetry
// stream's histograms. A performance change to Generate or Run must leave
// the file byte-identical; only an intended behaviour change regenerates
// it, with `go test ./internal/workload -run TestRunGolden -update`.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenFracs are the malleable fractions the golden covers: a mixed
// rigid/malleable trace and the fully malleable one perfbench runs.
var goldenFracs = []float64{0.5, 1.0}

func TestRunGolden(t *testing.T) {
	cl := testCluster()
	var out bytes.Buffer
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	for _, kind := range GenKinds {
		for _, frac := range goldenFracs {
			spec := GenSpec{Kind: kind, Seed: 1, Jobs: 300, Cores: 160, Load: 1.0, MalleableFrac: frac}
			jobs, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			var tr bytes.Buffer
			if err := WriteTrace(&tr, jobs); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "trace %s %x\n", spec, sha256.Sum256(tr.Bytes()))
			for _, pol := range Policies() {
				for _, noBackfill := range []bool{false, true} {
					stream := obs.NewStream()
					res, err := Run(jobs, Params{Cluster: cl, Cost: testCost(), Policy: pol,
						DisableBackfill: noBackfill, Telemetry: stream})
					if err != nil {
						t.Fatalf("%s/%s: %v", spec, pol.Name(), err)
					}
					h := sha256.New()
					for _, j := range res.Jobs {
						fmt.Fprintf(h, "%d %t %s %s %s %s %s %d %s\n", j.ID, j.Malleable,
							bits(j.Arrival), bits(j.Start), bits(j.End), bits(j.Wait),
							bits(j.Slowdown), j.Reconfigs, bits(j.ReconfigSeconds))
					}
					fmt.Fprintf(&out, "run %s %s nobackfill=%t jobs=%x\n", spec, pol.Name(), noBackfill, h.Sum(nil))
					fmt.Fprintf(&out, "  makespan=%s used=%s util=%s thru=%s\n",
						bits(res.Makespan), bits(res.UsedCoreSeconds), bits(res.Utilization), bits(res.Throughput))
					fmt.Fprintf(&out, "  wait=%s sld=%s p95=%s max=%s\n",
						bits(res.MeanWait), bits(res.MeanSlowdown), bits(res.P95Slowdown), bits(res.MaxSlowdown))
					fmt.Fprintf(&out, "  reconfigs=%d reconfsec=%s peak=%d maxq=%d\n",
						res.Reconfigs, bits(res.ReconfigSeconds), res.PeakCores, res.MaxQueueDepth)
					snap := stream.Snapshot()
					for _, nh := range snap.Hists {
						fmt.Fprintf(&out, "  hist %s count=%d sum=%s\n", nh.Name, nh.Hist.Count, bits(nh.Hist.Sum))
					}
				}
			}
		}
	}

	path := filepath.Join("testdata", "run.golden")
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
				t.Fatalf("run golden drifted at line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("run golden drifted: got %d lines, want %d", len(gl), len(wl))
	}
}
