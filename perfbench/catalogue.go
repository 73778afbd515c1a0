package main

import "fmt"

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"outcomes_per_s", "1/s", "higher"},
	{"peak_heap_mb", "MiB", "lower"},
}

// The circuits each layer metric is broken down by.
var (
	treeCircuits = []string{"qft_n12", "qv_n12", "mul_n13"}
	mixCircuits  = []string{"bv_n10", "qft_n8", "bv_n8"}
	kernelNames  = []string{"H", "CX", "RZ", "Apply2Q", "PhaseRun8"}
	kernelWidths = []int{12, 20}
)

// perLayer are the metrics a traced run reports, on every workload; a
// layer the workload does not exercise reads 0. README.md says which
// end-to-end metric each should move, on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{name, unit, better}) }
	for _, c := range treeCircuits {
		add("statevec.amps_per_s."+c, "1/s", "higher")
	}
	for _, k := range kernelNames {
		for _, w := range kernelWidths {
			add(fmt.Sprintf("statevec.amps_per_s.%s.q%d", k, w), "1/s", "higher")
		}
	}
	for _, k := range kernelNames {
		for _, w := range kernelWidths {
			add(fmt.Sprintf("statevec.bytes_per_call.%s.q%d", k, w), "B.computed", "lower")
		}
	}
	for _, c := range treeCircuits {
		add("core.gate_apps_per_outcome."+c, "count", "lower")
		add("core.copies_per_outcome."+c, "count", "lower")
		add("core.work_ratio."+c, "ratio", "lower")
		add("core.ns_per_gate_app."+c, "ns", "lower")
		add("core.us_per_outcome."+c, "us", "lower")
		add("core.speedup."+c, "x", "higher")
		add("core.peak_state_mb."+c, "MiB", "lower")
	}
	add("core.prefix_hits", "count", "higher")
	add("core.gate_apps_per_outcome.sweep", "count", "lower")
	add("core.snapshot_hit_ratio", "ratio", "higher")
	for _, c := range treeCircuits {
		add("trajectory.ns_per_gate_app."+c, "ns", "lower")
		add("trajectory.noise_apps_per_shot."+c, "count", "lower")
		add("trajectory.us_per_shot."+c, "us", "lower")
	}
	for _, c := range treeCircuits {
		add("partition.plan_us."+c, "us", "lower")
		add("planner.decide_us."+c, "us", "lower")
	}
	for _, c := range mixCircuits {
		add("workloads.lookup_ms."+c, "ms", "lower")
		add("workloads.lookup_allocs."+c, "count", "lower")
		add("workloads.lookup_kb."+c, "KiB", "lower")
		add("circuit.digest_us."+c, "us", "lower")
		add("serve.prepare_ms."+c, "ms", "lower")
	}
	add("serve.handler_ms_mean", "ms", "lower")
	add("serve.handler_ms_p50", "ms", "lower")
	add("serve.client_gap_ms", "ms", "lower")
	add("serve.plan_cache_hit_ratio", "ratio", "higher")
	add("resultstore.hit_ratio", "ratio", "higher")
	add("resultstore.replay_ms", "ms", "lower")
	add("sweep.prepare_ms", "ms", "lower")
	add("sweep.run_ms", "ms", "lower")
	add("sweep.work_ratio", "ratio", "lower")
	add("stabilizer.outcomes_per_s.bv_n10", "1/s", "higher")
	add("runtime.alloc_mb_per_op", "MiB", "lower")
	add("runtime.gc_cycles_per_op", "count", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("trace.spans", "count", "higher")
	return out
}
