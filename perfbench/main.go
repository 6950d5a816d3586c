// Command perfbench is the repository's benchmark. It drives the
// simulator's layers from outside, through their public entry points, on
// four named workloads, and prints every end-to-end metric with its unit,
// a digest of the simulated outputs checked against digests.json, and as
// its last line one JSON object:
//
//	{"correct": true, "attempted": 72, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh compare OLD_DIR NEW_DIR
//
// With --trace 0 the run measures host time with tracing off; with
// --trace 1 it reruns the workload under a counting trace sink, a CPU
// profile and benchmark-side spans, runs the layer probes, and prints the
// per-layer metrics instead. Every run also writes its full result to
// .bench_out/results/. See perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
)

// outDir is where runs leave results, spans and failing fault plans,
// relative to the working directory (the repository root).
const outDir = ".bench_out"

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run produces. The result line printed last is
// the Correct/Attempted/Failed/Metrics subset; the saved file keeps the
// rest for the compare command.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	InputSeed int64             `json:"inputSeed"`
	Trace     bool              `json:"trace"`
	Workers   int               `json:"workers"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra holds the end-to-end metrics outside the result line: those
	// only some workloads define (rank throughputs, rank_cost_growth),
	// fail_ratio and the peak RSS. The compare command reads them like
	// Metrics.
	Extra   map[string]metric `json:"extra,omitempty"`
	Digests []digestCheck     `json:"digests"`
	Errors  []string          `json:"errors,omitempty"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all (each in turn)")
	seed := flag.Int64("seed", 1, "run seed: recorded with the result and used to pair runs in compare")
	inputSeed := flag.Int64("input-seed", 1, "seed of the generated inputs: the chaos plans of fault-chaos and the job trace of cluster-trace")
	seconds := flag.Float64("seconds", 20, "how long the untraced pass repeats the workload")
	traced := flag.Int("trace", 0, "1: run the traced pass and print per-layer metrics")
	record := flag.Bool("record-digests", false, "store this run's digests in perfbench/digests.json instead of checking them")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if err := run(n, *seed, *inputSeed, *seconds, *traced == 1, *record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

func run(name string, seed, inputSeed int64, seconds float64, traced, record bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if _, err := loadSpec(); err != nil {
		return err
	}
	recorded, err := loadDigests()
	if err != nil {
		return err
	}
	w := mk(inputSeed)
	res := &result{
		Workload: name, Seed: seed, InputSeed: inputSeed, Trace: traced,
		Workers: harness.DefaultWorkers(), Correct: true,
	}
	var metrics []metricDef
	if traced {
		if err := tracedPass(w, res); err != nil {
			return err
		}
		metrics = perLayerMetrics()
	} else {
		if err := untracedPass(w, seconds, res); err != nil {
			return err
		}
		metrics = endToEndMetrics()
	}
	for i := range res.Digests {
		d := &res.Digests[i]
		if record {
			recorded.set(name, *d, inputSeed)
			d.Status = "recorded"
			continue
		}
		d.check(recorded, name, inputSeed)
		if d.Status == "changed" {
			res.fail("digest %s changed: got %s, recorded %s", d.Name, d.Value, d.Want)
		}
	}
	if record {
		if err := recorded.save(); err != nil {
			return err
		}
	}
	for _, m := range metrics {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce metric %s", name, m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("workload %s: metric %s is %v", name, m.Name, v.Value)
		}
	}
	printReport(res, metrics)
	if err := saveResult(res); err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{
		Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// untracedPass repeats set-up and the timed part of the workload until the
// time budget is spent (at least once), then reports medians over rounds.
// It runs the workload on one thread (GOMAXPROCS=1, one worker), so what
// it measures does not depend on how many of the host's cores are free,
// times it on the process's CPU clock and scales the times to reference
// speed (see clock.go).
func untracedPass(w bench, seconds float64, res *result) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res.Workers = 1
	m := &meter{}
	var (
		setups, walls, p50s, tails, allocs []float64
		cpuWalls, elapsed                  []float64
		extras                             = map[string][]float64{}
		last                               roundResult
	)
	start := time.Now()
	for {
		// Start every round from a collected heap, so a round does not pay
		// for the garbage of the one before it.
		runtime.GC()
		var (
			in    any
			setup float64
		)
		err := m.time(&setup, func() (err error) {
			in, err = w.setup()
			return err
		})
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		m.settle()
		setups = append(setups, setup)
		m.reset()
		t1, c1, s1 := time.Now(), cpuClock(), m.refCPU
		a1, r1 := allocatedMiB(), m.refAlloc
		rr, err := w.round(in, 1, m)
		allocs = append(allocs, allocatedMiB()-a1-(m.refAlloc-r1)/(1<<20))
		if err != nil {
			return fmt.Errorf("%s: %w", w.name(), err)
		}
		// The round's CPU time without the reference samples it held.
		cpu := cpuClock() - c1 - (m.refCPU - s1)
		cpuWalls = append(cpuWalls, cpu)
		walls = append(walls, cpu*m.factor())
		elapsed = append(elapsed, time.Since(t1).Seconds())
		if len(walls) > 1 && rr.digest != last.digest {
			res.fail("round %d digest %s differs from round 1's %s", len(walls), rr.digest, last.digest)
		}
		p50, tail := cellStats(rr.cells)
		p50s, tails = append(p50s, p50), append(tails, tail)
		for k, v := range rr.extra {
			extras[k] = append(extras[k], v.Value)
		}
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		last = rr
		perRound := time.Since(start).Seconds() / float64(len(walls))
		if time.Since(start).Seconds()+perRound > seconds {
			break
		}
	}
	// Set-up is cheap next to a round; repeat it alone so its median rests
	// on many samples even when one round fills the budget. A sample times
	// enough set-ups back to back to last setupBatch, so one collection
	// weighs little on it. Collect the rounds' garbage first, so the
	// samples do not pay for it.
	batch := min(max(int(setupBatch/setups[0]), 1), 1000)
	sample := func(m *meter, dst *float64) error {
		return m.time(dst, func() error {
			for i := 0; i < batch; i++ {
				if _, err := w.setup(); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if s, ok := w.(interface{ setupSample(*meter, *float64) error }); ok {
		sample, batch = s.setupSample, 1
	}
	runtime.GC()
	var samples []*float64
	for t := time.Now(); len(setups)+len(samples) < minSetupSamples && time.Since(t) < maxSetupRepeat; {
		dt := new(float64)
		if err := sample(m, dt); err != nil {
			return fmt.Errorf("%s set-up: %w", w.name(), err)
		}
		samples = append(samples, dt)
	}
	m.settle()
	for _, dt := range samples {
		setups = append(setups, *dt/float64(batch))
	}
	for _, e := range last.errs {
		res.fail("%s", e)
	}
	if err := writePlanFiles(res, last.failures); err != nil {
		return err
	}
	res.Metrics = map[string]metric{
		"setup_s":     {median(setups), "s"},
		"wall_s":      {median(walls), "s"},
		"cell_p50_s":  {median(p50s), "s"},
		"cell_tail_s": {median(tails), "s"},
		"alloc_mb":    {median(allocs), "MiB"},
	}
	res.Extra = map[string]metric{
		"fail_ratio":  {float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"},
		"peak_rss_mb": {peakRSSMiB(), "MiB"},
		// The round's unscaled CPU time, its elapsed real time (reference
		// samples included), and the mean reference sample, which says
		// how fast the host ran.
		"cpu_wall_s": {median(cpuWalls), "s"},
		"elapsed_s":  {median(elapsed), "s"},
		"ref_s":      {m.refMean(), "s"},
	}
	for k, v := range last.extra {
		// A failed scale cell leaves a throughput ratio undefined.
		if x := median(extras[k]); !math.IsInf(x, 0) && !math.IsNaN(x) {
			res.Extra[k] = metric{x, v.Unit}
		}
	}
	res.Digests = last.digests
	return nil
}

const (
	minSetupSamples = 101
	maxSetupRepeat  = 2 * time.Second
	setupBatch      = 0.02 // s
)

// cellStats returns the median per-cell host time and the tail: the
// highest nearest-rank percentile with at least ten cells beyond it, or
// the slowest cell when a round has fewer than eleven. Failed cells count
// as +Inf.
func cellStats(cells []float64) (p50, tail float64) {
	if len(cells) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), cells...)
	sort.Float64s(s)
	return median(s), s[tailIndex(len(s))]
}

func tailIndex(n int) int {
	if n > 10 {
		return n - 11
	}
	return n - 1
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// peakRSSMiB is the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func printReport(res *result, metrics []metricDef) {
	pass := "untraced"
	if res.Trace {
		pass = "traced"
	}
	fmt.Printf("# perfbench %s seed=%d input-seed=%d pass=%s workers=%d\n",
		res.Workload, res.Seed, res.InputSeed, pass, res.Workers)
	for _, m := range metrics {
		v := res.Metrics[m.Name]
		fmt.Printf("%-34s %16.6g %s\n", m.Name, v.Value, v.Unit)
	}
	keys := make([]string, 0, len(res.Extra))
	for k := range res.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-34s %16.6g %s\n", k, res.Extra[k].Value, res.Extra[k].Unit)
	}
	fmt.Printf("attempted %d failed %d\n", res.Attempted, res.Failed)
	for _, d := range res.Digests {
		fmt.Printf("digest %-22s %s %s\n", d.Name, d.Value, d.Status)
	}
	for _, e := range res.Errors {
		fmt.Printf("CHECK FAILED: %s\n", e)
	}
}

func saveResult(res *result) error {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", res.Workload, res.Seed, b2i(res.Trace), time.Now().UnixNano())
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// allocatedMiB is the heap allocated by the process so far.
func allocatedMiB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
