package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric with its unit and better direction.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the metric
// lists (with the end-to-end bounds the compare command applies).
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// endToEndMetrics are reported by every workload with tracing off.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{Name: "setup_s", Unit: "s", Better: "lower"},
		{Name: "wall_s", Unit: "s", Better: "lower"},
		{Name: "cell_p50_s", Unit: "s", Better: "lower"},
		{Name: "cell_tail_s", Unit: "s", Better: "lower"},
		{Name: "alloc_mb", Unit: "MiB", Better: "lower"},
	}
}

// extraMetrics are the end-to-end metrics only some workloads define; the
// human report and the compare command carry them.
var extraMetrics = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "p2p_ranks_per_s", Unit: "ranks/s", Better: "higher"},
	{Name: "rma_ranks_per_s", Unit: "ranks/s", Better: "higher"},
	{Name: "rank_cost_growth", Unit: "ratio", Better: "lower"},
	{Name: "cpu_wall_s", Unit: "s", Better: "lower"},
	{Name: "elapsed_s", Unit: "s", Better: "lower"},
	{Name: "ref_s", Unit: "s", Better: "lower"},
}

// perLayerMetrics are reported by every workload's traced pass; a layer
// the workload does not reach reports 0.
func perLayerMetrics() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, l := range cpuLayers {
		add(l+".cpu_share", "share", "lower")
	}
	sized := func(name, unit string) {
		for _, n := range probeSizes {
			add(fmt.Sprintf("%s.n%d", name, n), unit, "lower")
		}
	}
	sized("sim.event_ns", "ns")
	sized("sim.resume_ns", "ns")
	add("sim.run_s", "s", "lower")
	sized("ps.startstop_ns", "ns")
	add("ps.computes", "count", "lower")
	sized("netmodel.transfer_ns", "ns")
	sized("mpi.fence_us", "us")
	sized("mpi.wincreate_us", "us")
	sized("mpi.barrier_us", "us")
	sized("mpi.alltoallv_us", "us")
	sized("mpi.match_ns", "ns")
	for _, c := range []string{"sends", "recvs", "colls", "barriers", "spawns"} {
		add("mpi."+c, "count", "lower")
	}
	add("mpi.bytes", "bytes", "lower")
	sized("partition.overlap_ns", "ns")
	sized("core.plan_ns", "ns")
	add("core.reconfig_s", "s", "lower")
	for _, st := range coreStages {
		add("core.host_s."+st, "s", "lower")
	}
	add("core.peak_live_bytes", "bytes", "lower")
	for _, op := range []string{"detect", "replan", "escalate", "extend", "drop", "crash"} {
		add("fault."+op, "count", "lower")
	}
	add("fault.max_rung", "rung", "lower")
	add("synthapp.host_s.iterate", "s", "lower")
	add("harness.pool_busy", "ratio", "higher")
	add("harness.parallel_speedup", "ratio", "higher")
	add("obs.trace_overhead", "ratio", "lower")
	sized("obs.stream_record_ns", "ns")
	sized("trace.recorder_record_ns", "ns")
	for _, pol := range []string{"rigid", "greedy", "fairshare", "utiltarget"} {
		add("workload.cell_s."+pol, "s", "lower")
	}
	add("workload.reconfigs", "count", "lower")
	add("rms.price_ns", "ns", "lower")
	return out
}

// loadSpec reads BENCHMARK.json and checks that it lists exactly the
// metrics this program reports, so the two cannot drift apart.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := sameMetrics("end_to_end", spec.EndToEnd, endToEndMetrics()); err != nil {
		return spec, err
	}
	return spec, sameMetrics("per_layer", spec.PerLayer, perLayerMetrics())
}

func sameMetrics(list string, got, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("BENCHMARK.json %s lists %d metrics, the benchmark reports %d", list, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
			return fmt.Errorf("BENCHMARK.json %s[%d] = %s (%s, %s), the benchmark reports %s (%s, %s)",
				list, i, g.Name, g.Unit, g.Better, w.Name, w.Unit, w.Better)
		}
	}
	return nil
}
