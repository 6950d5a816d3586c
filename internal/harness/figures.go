package harness

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/synthapp"
)

// SyncConfigs are the four synchronous variants of Figures 2-3.
func SyncConfigs() []core.Config {
	var out []core.Config
	for _, c := range core.AllConfigs() {
		if c.Overlap == core.Sync {
			out = append(out, c)
		}
	}
	return out
}

// AsyncConfigs are the eight asynchronous variants of Figures 4-5.
func AsyncConfigs() []core.Config {
	var out []core.Config
	for _, c := range core.AllConfigs() {
		if c.Overlap != core.Sync {
			out = append(out, c)
		}
	}
	return out
}

// Series is one plotted line: a label and (x, y) points ordered by x.
type Series struct {
	Label  string
	Points []Point
}

// Point is one plotted value.
type Point struct {
	X int // the varying process count (NT when shrinking, NS when expanding)
	Y float64
}

// SyncReconfigSeries builds Figure 2/3 content from measurements: the
// median reconfiguration time of each synchronous configuration over the
// shrink (NS=160) and expansion (NT=160) pair families.
func SyncReconfigSeries(m Measurements, pairs []Pair) []Series {
	var out []Series
	for _, cfg := range SyncConfigs() {
		s := Series{Label: cfg.String()}
		for _, p := range pairs {
			rs, ok := m[CellKey{Pair: p, Config: cfg}]
			if !ok {
				continue
			}
			s.Points = append(s.Points, Point{X: varying(p), Y: MedianReconfig(rs)})
		}
		sortPoints(s.Points)
		out = append(out, s)
	}
	return out
}

// AlphaSeries builds Figure 4/5 content: for each asynchronous
// configuration, α = median asynchronous reconfiguration time divided by
// the median of its synchronous counterpart, per pair.
func AlphaSeries(m Measurements, pairs []Pair) []Series {
	var out []Series
	for _, cfg := range AsyncConfigs() {
		syncCfg := cfg
		syncCfg.Overlap = core.Sync
		s := Series{Label: cfg.String()}
		for _, p := range pairs {
			async, okA := m[CellKey{Pair: p, Config: cfg}]
			syncRs, okS := m[CellKey{Pair: p, Config: syncCfg}]
			if !okA || !okS {
				continue
			}
			den := MedianReconfig(syncRs)
			if den <= 0 {
				continue
			}
			s.Points = append(s.Points, Point{X: varying(p), Y: MedianReconfig(async) / den})
		}
		sortPoints(s.Points)
		out = append(out, s)
	}
	return out
}

// SpeedupSeries builds Figure 7/8 content: each configuration's speedup of
// the median total application time against Baseline COLS, plus the
// Baseline COLS reconfiguration-time reference series (the figures' right
// axis).
func SpeedupSeries(m Measurements, pairs []Pair) (speedups []Series, baselineReconfig Series) {
	base := core.Config{Spawn: core.Baseline, Comm: core.COL, Overlap: core.Sync}
	baselineReconfig = Series{Label: "Baseline COLS reconfig (s)"}
	for _, p := range pairs {
		if rs, ok := m[CellKey{Pair: p, Config: base}]; ok {
			baselineReconfig.Points = append(baselineReconfig.Points,
				Point{X: varying(p), Y: MedianReconfig(rs)})
		}
	}
	sortPoints(baselineReconfig.Points)

	for _, cfg := range core.AllConfigs() {
		if cfg == base {
			continue
		}
		s := Series{Label: cfg.String()}
		for _, p := range pairs {
			rs, ok := m[CellKey{Pair: p, Config: cfg}]
			baseRs, okB := m[CellKey{Pair: p, Config: base}]
			if !ok || !okB {
				continue
			}
			if t := MedianTotal(rs); t > 0 {
				s.Points = append(s.Points, Point{X: varying(p), Y: MedianTotal(baseRs) / t})
			}
		}
		sortPoints(s.Points)
		speedups = append(speedups, s)
	}
	return speedups, baselineReconfig
}

// MaxSpeedup scans speedup series for the best (value, config) — the
// paper's headline 1.14x (Ethernet) and 1.21x (Infiniband).
func MaxSpeedup(speedups []Series) (float64, string) {
	best, label := 0.0, ""
	for _, s := range speedups {
		for _, pt := range s.Points {
			if pt.Y > best {
				best, label = pt.Y, s.Label
			}
		}
	}
	return best, label
}

// Metric selects what a best-method map optimizes.
type Metric int

const (
	// ReconfigMetric scores cells by reconfiguration time (Figure 6).
	ReconfigMetric Metric = iota
	// TotalMetric scores cells by application execution time (Figure 9).
	TotalMetric
)

func (mt Metric) value(r synthapp.Result) float64 {
	if mt == ReconfigMetric {
		return r.ReconfigTime()
	}
	return r.TotalTime
}

// BestMap is the Figure 6/9 matrix: for every (NS, NT) pair, the
// configuration selected by the statistical pipeline.
type BestMap struct {
	Counts  []int
	Configs []core.Config
	// Winner[i][j] is the index into Configs for NS=Counts[i], NT=Counts[j];
	// -1 on the diagonal and for missing cells.
	Winner [][]int
}

// alpha is the significance level of every statistical test the paper
// runs (§4.3).
const alpha = 0.05

// BestMethodMap applies §4.3's selection to every measured pair: the
// fastest configuration by median wins; configurations statistically
// indistinguishable from it (Kruskal-Wallis + Conover at alpha) tie, and
// ties resolve to the configuration appearing most often across all other
// cells' tie sets, exactly as the paper describes for Figures 6 and 9.
func BestMethodMap(m Measurements, pairs []Pair, configs []core.Config, metric Metric) BestMap {
	// Axes come from the pairs actually measured (the paper's counts for
	// full sweeps, smaller sets for partial ones).
	countSet := map[int]bool{}
	for _, p := range pairs {
		countSet[p.NS] = true
		countSet[p.NT] = true
	}
	var counts []int
	for c := range countSet {
		counts = append(counts, c)
	}
	sort.Ints(counts)

	bm := BestMap{Counts: counts, Configs: configs}
	idxOf := map[int]int{}
	for i, c := range counts {
		idxOf[c] = i
	}
	bm.Winner = make([][]int, len(counts))
	for i := range bm.Winner {
		bm.Winner[i] = make([]int, len(counts))
		for j := range bm.Winner[i] {
			bm.Winner[i][j] = -1
		}
	}

	// First pass: per-cell tie sets.
	tieSets := map[Pair][]int{}
	freq := make([]int, len(configs))
	for _, p := range pairs {
		samples := make([][]float64, 0, len(configs))
		ok := true
		for _, cfg := range configs {
			rs, found := m[CellKey{Pair: p, Config: cfg}]
			if !found || len(rs) == 0 {
				ok = false
				break
			}
			samples = append(samples, values(rs, metric.value))
		}
		if !ok {
			continue
		}
		sel := stats.SelectFastest(samples, alpha)
		tieSets[p] = sel.Tied
		for _, t := range sel.Tied {
			freq[t]++
		}
	}

	// Second pass: resolve each cell's tie by global frequency, preferring
	// the cell's own median winner on equal frequency.
	for _, p := range pairs {
		tied, ok := tieSets[p]
		if !ok {
			continue
		}
		best := tied[0]
		for _, t := range tied[1:] {
			if freq[t] > freq[best] {
				best = t
			}
		}
		bm.Winner[idxOf[p.NS]][idxOf[p.NT]] = best
	}
	return bm
}

// Render prints the matrix like the paper's color maps: rows are NS,
// columns NT, cells hold the winning configuration's index into Configs.
func (bm BestMap) Render(w io.Writer) {
	fmt.Fprintf(w, "%6s", "NS\\NT")
	for _, nt := range bm.Counts {
		fmt.Fprintf(w, "%6d", nt)
	}
	fmt.Fprintln(w)
	for i, ns := range bm.Counts {
		fmt.Fprintf(w, "%6d", ns)
		for j := range bm.Counts {
			if bm.Winner[i][j] < 0 {
				fmt.Fprintf(w, "%6s", "-")
			} else {
				fmt.Fprintf(w, "%6d", bm.Winner[i][j])
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "legend:")
	for i, cfg := range bm.Configs {
		fmt.Fprintf(w, "  %2d = %s\n", i, cfg)
	}
}

// WinnerCounts tallies how many cells each configuration wins.
func (bm BestMap) WinnerCounts() map[string]int {
	out := map[string]int{}
	for i := range bm.Winner {
		for j := range bm.Winner[i] {
			if k := bm.Winner[i][j]; k >= 0 {
				out[bm.Configs[k].String()]++
			}
		}
	}
	return out
}

// TopWinner returns the most frequent winner and its cell count.
func (bm BestMap) TopWinner() (string, int) {
	counts := bm.WinnerCounts()
	var names []string
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	best, n := "", 0
	for _, name := range names {
		if counts[name] > n {
			best, n = name, counts[name]
		}
	}
	return best, n
}

// RenderSeries prints plotted series as aligned text tables.
func RenderSeries(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "== %s ==\n", title)
	if len(series) == 0 {
		fmt.Fprintln(w, "(no data)")
		return
	}
	// Header: union of x values.
	xsSet := map[int]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	var xs []int
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	fmt.Fprintf(w, "%-16s", "config")
	for _, x := range xs {
		fmt.Fprintf(w, "%9d", x)
	}
	fmt.Fprintln(w)
	for _, s := range series {
		fmt.Fprintf(w, "%-16s", s.Label)
		byX := map[int]float64{}
		for _, p := range s.Points {
			byX[p.X] = p.Y
		}
		for _, x := range xs {
			if y, ok := byX[x]; ok {
				fmt.Fprintf(w, "%9.3f", y)
			} else {
				fmt.Fprintf(w, "%9s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

func varying(p Pair) int {
	if p.NS == 160 {
		return p.NT
	}
	return p.NS
}

func sortPoints(pts []Point) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
}

// ShapiroSummary runs the paper's normality screening: it applies
// Shapiro-Wilk to every cell with enough repetitions and reports the
// fraction rejecting normality at alpha (the paper's data rejected
// everywhere, motivating the non-parametric pipeline).
func ShapiroSummary(m Measurements, metric Metric) (rejected, tested int) {
	keys := make([]CellKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		vals := values(m[k], metric.value)
		if len(vals) < 3 || allEqual(vals) {
			continue
		}
		tested++
		if stats.ShapiroWilk(vals).P < alpha {
			rejected++
		}
	}
	return rejected, tested
}

func allEqual(xs []float64) bool {
	for _, x := range xs[1:] {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// CSVHeader is the column layout of Measurements CSV files.
const CSVHeader = "ns,nt,spawn,comm,overlap,rep,reconfig,total,overlapped,iter_before,iter_during,iter_after"

// WriteCSV serializes measurements, one row per repetition. Output is
// buffered: each row is a handful of small writes, and w is typically a
// file or pipe.
func WriteCSV(w io.Writer, m Measurements) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, CSVHeader); err != nil {
		return err
	}
	keys := make([]CellKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	for _, k := range keys {
		for rep, r := range m[k] {
			_, err := fmt.Fprintf(bw, "%d,%d,%s,%s,%s,%d,%.9g,%.9g,%d,%.9g,%.9g,%.9g\n",
				k.Pair.NS, k.Pair.NT, k.Config.Spawn, k.Config.Comm, k.Config.Overlap,
				rep, r.ReconfigTime(), r.TotalTime, r.OverlappedIterations,
				r.IterTimeBefore, r.IterTimeDuring, r.IterTimeAfter)
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ParseCSV reads measurements written by WriteCSV. It rejects what
// WriteCSV never writes: process counts below 1, configuration columns
// other than a configuration's own names, negative overlapped iteration
// counts, times that are negative or not finite, and a rep other than the
// next one of its cell (each cell's reps count 0, 1, …).
// Errors name the offending line.
func ParseCSV(r io.Reader) (Measurements, error) {
	var buf strings.Builder
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != CSVHeader {
		return nil, fmt.Errorf("harness: line 1: bad CSV header")
	}
	m := Measurements{}
	for i, line := range lines[1:] {
		res, key, rep, err := parseRow(line)
		if err == nil && rep != len(m[key]) {
			err = fmt.Errorf("rep %d, want %d: a cell's reps count 0, 1, …", rep, len(m[key]))
		}
		if err != nil {
			return nil, fmt.Errorf("harness: line %d: %w", i+2, err)
		}
		m[key] = append(m[key], res)
	}
	return m, nil
}

// parseRow decodes one CSV row of WriteCSV's layout.
func parseRow(line string) (synthapp.Result, CellKey, int, error) {
	var res synthapp.Result
	f := strings.Split(line, ",")
	if len(f) != 12 {
		return res, CellKey{}, 0, fmt.Errorf("bad CSV row %q", line)
	}
	var ints [4]int // ns, nt, rep, overlapped
	for i, col := range [4]int{0, 1, 5, 8} {
		n, err := strconv.Atoi(f[col])
		if err != nil {
			return res, CellKey{}, 0, err
		}
		ints[i] = n
	}
	ns, nt, rep, overlapped := ints[0], ints[1], ints[2], ints[3]
	if ns < 1 || nt < 1 {
		return res, CellKey{}, 0, fmt.Errorf("process counts %d->%d below 1", ns, nt)
	}
	if rep < 0 || overlapped < 0 {
		return res, CellKey{}, 0, fmt.Errorf("negative rep %d or overlapped count %d", rep, overlapped)
	}
	var times [5]float64 // reconfig, total, iter_before, iter_during, iter_after
	for i, col := range [5]int{6, 7, 9, 10, 11} {
		x, err := strconv.ParseFloat(f[col], 64)
		if err != nil {
			return res, CellKey{}, 0, err
		}
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return res, CellKey{}, 0, fmt.Errorf("time %s is not a finite non-negative number", f[col])
		}
		times[i] = x
	}
	cfg, err := core.ParseConfig(f[2] + " " + f[3] + f[4])
	if err != nil {
		return res, CellKey{}, 0, err
	}
	if cfg.Spawn.String() != f[2] || cfg.Comm.String() != f[3] || cfg.Overlap.String() != f[4] {
		return res, CellKey{}, 0, fmt.Errorf("configuration columns %q, want %s,%s,%s",
			strings.Join(f[2:5], ","), cfg.Spawn, cfg.Comm, cfg.Overlap)
	}
	res = synthapp.Result{
		ReconfigEnd: times[0], TotalTime: times[1],
		OverlappedIterations: overlapped,
		IterTimeBefore:       times[2], IterTimeDuring: times[3], IterTimeAfter: times[4],
	}
	return res, CellKey{Pair: Pair{NS: ns, NT: nt}, Config: cfg}, rep, nil
}

// WriteFigures renders the paper's evaluation (§4) from one result set:
// Figures 2-5 and 7-8 as text tables, then the Figure 6 (reconfiguration
// time) and Figure 9 (total time) best-method maps over the measured
// pairs. Figure pairs are numbered 2/3, 4/5 and 7/8 because one result
// set holds one network.
func WriteFigures(w io.Writer, m Measurements) error {
	bw := bufio.NewWriter(w)
	shrink, expand := From160(), To160()

	RenderSeries(bw, "Fig 2/3 top — synchronous reconfiguration time (s), shrinking from 160 (x = NT)",
		SyncReconfigSeries(m, shrink))
	fmt.Fprintln(bw)
	RenderSeries(bw, "Fig 2/3 bottom — synchronous reconfiguration time (s), expanding to 160 (x = NS)",
		SyncReconfigSeries(m, expand))
	fmt.Fprintln(bw)
	RenderSeries(bw, "Fig 4/5 top — alpha (async/sync reconfiguration), shrinking from 160 (x = NT)",
		AlphaSeries(m, shrink))
	fmt.Fprintln(bw)
	RenderSeries(bw, "Fig 4/5 bottom — alpha (async/sync reconfiguration), expanding to 160 (x = NS)",
		AlphaSeries(m, expand))
	fmt.Fprintln(bw)

	spS, baseS := SpeedupSeries(m, shrink)
	RenderSeries(bw, "Fig 7/8 top — speedup vs Baseline COLS, shrinking from 160 (x = NT)", spS)
	RenderSeries(bw, "Fig 7/8 top reference", []Series{baseS})
	fmt.Fprintln(bw)
	spE, baseE := SpeedupSeries(m, expand)
	RenderSeries(bw, "Fig 7/8 bottom — speedup vs Baseline COLS, expanding to 160 (x = NS)", spE)
	RenderSeries(bw, "Fig 7/8 bottom reference", []Series{baseE})
	best, label := MaxSpeedup(append(spS, spE...))
	fmt.Fprintf(bw, "\nmax speedup vs Baseline COLS: %.3fx (%s)\n", best, label)

	measured := map[Pair]bool{}
	for k := range m {
		measured[k.Pair] = true
	}
	var pairs []Pair
	for _, p := range AllPairs() {
		if measured[p] {
			pairs = append(pairs, p)
		}
	}
	for _, fig := range []struct {
		title  string
		metric Metric
	}{
		{"Fig 6 — best method per (NS, NT), reconfiguration time", ReconfigMetric},
		{"Fig 9 — best method per (NS, NT), total application time", TotalMetric},
	} {
		fmt.Fprintf(bw, "\n== %s ==\n", fig.title)
		rejected, tested := ShapiroSummary(m, fig.metric)
		fmt.Fprintf(bw, "Shapiro-Wilk: %d/%d cells reject normality at alpha=%g "+
			"(the paper's data rejects everywhere; medians + non-parametric tests follow)\n\n",
			rejected, tested, alpha)
		bm := BestMethodMap(m, pairs, core.AllConfigs(), fig.metric)
		bm.Render(bw)
		fmt.Fprintln(bw, "\ncells won per configuration:")
		counts := bm.WinnerCounts()
		for i, cfg := range core.AllConfigs() {
			if n := counts[cfg.String()]; n > 0 {
				fmt.Fprintf(bw, "  %2d  %-14s %d\n", i, cfg, n)
			}
		}
		top, n := bm.TopWinner()
		fmt.Fprintf(bw, "preferred method: %s (%d cells)\n", top, n)
	}
	return bw.Flush()
}
