package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract: BENCHMARK.json lists the same names, units and
// directions (a test holds them equal), and every run prints every
// metric of the table its --trace mode selects, on every workload. A
// layer a workload never enters reads 0 there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of the system sees; printed with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"edges_per_s", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"peak_heap_mb", "MB", "lower"},
}

// perLayer is one figure per layer call; printed with --trace 1. Layers
// are named after the repository's modules (graph, core, circuit, snn,
// service) plus the HTTP transport, the benchmark's own load generator,
// the Go runtime and the tracer itself.
var perLayer = []metricDef{
	{"graph.gen_ms", "ms", "lower"},
	{"graph.gen_ns_per_edge", "ns", "lower"},
	{"graph.gen_alloc_b_per_edge", "B", "lower"},
	{"core.compile_ms", "ms", "lower"},
	{"core.compile_ns_per_edge", "ns", "lower"},
	{"core.compile_alloc_b_per_edge", "B", "lower"},
	{"core.compile_allocs_per_edge", "count", "lower"},
	{"core.khop_ms", "ms", "lower"},
	{"core.khop_ns_per_edge", "ns", "lower"},
	{"core.khop_broadcasts", "count", "lower"},
	{"circuit.compile_ms", "ms", "lower"},
	{"circuit.compile_ns_per_neuron", "ns", "lower"},
	{"circuit.compile_alloc_b_per_neuron", "B", "lower"},
	{"circuit.neurons", "count", "lower"},
	{"circuit.synapses", "count", "lower"},
	{"snn.run_ms", "ms", "lower"},
	{"snn.run_ns_per_delivery", "ns", "lower"},
	{"snn.run_alloc_b_per_delivery", "B", "lower"},
	{"snn.deliveries_per_step", "count", "higher"},
	{"snn.spikes", "count", "lower"},
	{"snn.deliveries", "count", "lower"},
	{"snn.steps", "count", "lower"},
	{"snn.silent_steps_skipped", "count", "higher"},
	{"snn.max_queue_depth", "count", "lower"},
	{"service.exec_ms", "ms", "lower"},
	{"service.self_ms", "ms", "lower"},
	{"service.admitted", "count", "higher"},
	{"service.shed", "count", "lower"},
	{"service.degraded", "count", "lower"},
	{"service.retries", "count", "lower"},
	{"service.exact_ratio", "ratio", "higher"},
	{"http.roundtrip_ms", "ms", "lower"},
	{"http.self_ms", "ms", "lower"},
	{"http.resp_bytes", "B", "lower"},
	{"loadgen.late_p50_ms", "ms", "lower"},
	{"loadgen.late_tail_ms", "ms", "lower"},
	{"loadgen.sent", "count", "higher"},
	{"loadgen.failed", "count", "lower"},
	{"runtime.alloc_mb_per_op", "MB", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.unattributed_ms", "ms", "lower"},
}

// metricValue is one printed figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict line: the last line of standard
// output, with exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics keeps exactly the metrics of defs from vals, in their
// declared units. A missing name is a bug in the workload, reported as
// an error rather than printed as a silent zero.
func selectMetrics(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload did not produce metrics %v", missing)
	}
	return out, nil
}

// printMetrics writes one human-readable line per metric, in table
// order, ahead of the verdict line.
func printMetrics(w io.Writer, defs []metricDef, ms map[string]metricValue) {
	for _, d := range defs {
		m := ms[d.Name]
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", d.Name, m.Value, m.Unit)
	}
}

// writeVerdict prints the verdict as one JSON line.
func writeVerdict(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
