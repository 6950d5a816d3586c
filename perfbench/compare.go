package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// defaultBound is the regression bound for end-to-end metrics that
// BENCHMARK.json does not bound (the workload-specific extras).
const defaultBound = 0.1

// compareMain compares two result sets, each a directory of result files
// as runs leave them in .bench_out/results. For every workload and
// end-to-end metric it prints both sides' median and quartiles, the share
// of seed-matched pairs the new side won, and a verdict; for the traced
// passes it prints the per-layer medians and their change.
func compareMain(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare OLD_DIR NEW_DIR")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	old, err := loadResults(args[0])
	if err != nil {
		return err
	}
	cur, err := loadResults(args[1])
	if err != nil {
		return err
	}
	e2e := append(append([]metricDef(nil), spec.EndToEnd...), extraMetrics...)
	for _, w := range workloadNames() {
		o, n := old[runKey{w, false}], cur[runKey{w, false}]
		if len(o) > 0 && len(n) > 0 {
			fmt.Printf("\n== %s: end to end (%d old runs, %d new runs)\n", w, len(o), len(n))
			fmt.Printf("%-18s %-9s %12s %12s %12s   %12s %12s %12s  %6s  %s\n",
				"metric", "unit", "old q1", "old median", "old q3", "new q1", "new median", "new q3", "won", "verdict")
			for _, m := range e2e {
				compareMetric(m, o, n)
			}
		}
		o, n = old[runKey{w, true}], cur[runKey{w, true}]
		if len(o) > 0 && len(n) > 0 {
			fmt.Printf("\n== %s: per layer, traced (%d old runs, %d new runs)\n", w, len(o), len(n))
			for _, m := range spec.PerLayer {
				ov, nv := values(o, m.Name), values(n, m.Name)
				if len(ov) == 0 || len(nv) == 0 {
					continue
				}
				om, nm := median(ov), median(nv)
				delta := "   n/a"
				if om != 0 {
					delta = fmt.Sprintf("%+6.1f%%", 100*(nm-om)/math.Abs(om))
				}
				fmt.Printf("%-34s %-6s %14.6g -> %14.6g  %s\n", m.Name, m.Unit, om, nm, delta)
			}
		}
	}
	return nil
}

type runKey struct {
	workload string
	trace    bool
}

func loadResults(dir string) (map[runKey][]result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	out := map[runKey][]result{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		k := runKey{r.Workload, r.Trace}
		out[k] = append(out[k], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].Seed < rs[j].Seed })
	}
	return out, nil
}

// lookup finds a metric among a run's result-line and extra metrics.
func lookup(r result, name string) (float64, bool) {
	if m, ok := r.Metrics[name]; ok {
		return m.Value, true
	}
	m, ok := r.Extra[name]
	return m.Value, ok
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := lookup(r, name); ok {
			out = append(out, v)
		}
	}
	return out
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// default exclusive method.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := (n + 1) * i
		j := min(max(m/4, 1), n-1)
		delta := float64(m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func compareMetric(m metricDef, old, cur []result) {
	ov, nv := values(old, m.Name), values(cur, m.Name)
	if len(ov) == 0 || len(nv) == 0 {
		return
	}
	bound := defaultBound
	if m.Bound != nil {
		bound = *m.Bound
	}
	oq1, om, oq3 := quartiles(ov)
	nq1, nm, nq3 := quartiles(nv)
	// better(a, b): a is better than b in the metric's direction.
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	// Pair runs of the same seed, in order.
	bySeed := map[int64][]float64{}
	for _, r := range old {
		if v, ok := lookup(r, m.Name); ok {
			bySeed[r.Seed] = append(bySeed[r.Seed], v)
		}
	}
	pairs, wins := 0, 0
	for _, r := range cur {
		v, ok := lookup(r, m.Name)
		if !ok || len(bySeed[r.Seed]) == 0 {
			continue
		}
		o := bySeed[r.Seed][0]
		bySeed[r.Seed] = bySeed[r.Seed][1:]
		pairs++
		if better(v, o) {
			wins++
		}
	}
	won := math.NaN()
	if pairs > 0 {
		won = float64(wins) / float64(pairs)
	}
	spread, worse := 0.0, 0.0
	if om != 0 {
		spread = (oq3 - oq1) / math.Abs(om)
		worse = (nm - om) / math.Abs(om)
		if m.Better == "higher" {
			worse = -worse
		}
	}
	verdict := "unchanged"
	switch {
	case pairs > 0 && won >= 0.9 && math.Abs(nm-om) > oq3-oq1:
		verdict = "improved"
	case spread > bound:
		verdict = "unresolved"
	case worse > bound:
		verdict = "worse"
	}
	fmt.Printf("%-18s %-9s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %5.0f%%  %s\n",
		m.Name, m.Unit, oq1, om, oq3, nq1, nm, nq3, 100*won, verdict)
}
