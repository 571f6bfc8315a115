package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one reported metric and its unit. The tables below are the
// single list of what the benchmark prints; BENCHMARK.json repeats the names
// and units (a test holds the two together) and adds direction and bounds.
type metricDef struct{ name, unit string }

// endToEnd is printed by every workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tuples_per_s", "tuples/s"},
	{"detect_latency_p50_ms", "ms"},
	{"sut_cpu_s_per_mtuple", "cpu-s/Mtuple"},
	{"sut_peak_rss_mb", "MiB"},
}

// perLayer is printed by every workload with -trace 1. A metric that does
// not apply to a workload (the gateway's on a direct run, the store's
// without recording, lateness in a closed loop) reads 0 there. Per-layer
// times are as the clocks measured them; load.cpu_slowdown converts them to
// the reference seconds of the end-to-end metrics (see calib.go).
var perLayer = []metricDef{
	// Process level, untraced phase: /proc deltas and the server's counters.
	{"cluster.gateway_cpu_s_per_mtuple", "cpu-s/Mtuple"},
	{"serve.backend_cpu_s_per_mtuple", "cpu-s/Mtuple"},
	{"load.cpu_s_per_mtuple", "cpu-s/Mtuple"},
	{"load.cpu_slowdown", "ratio"},
	{"cluster.gateway_rss_mb", "MiB"},
	{"serve.backend_rss_mb", "MiB"},
	{"serve.tuples_in", "count"},
	{"serve.tuples_out", "count"},
	{"serve.tuples_dropped", "count"},
	{"serve.detections", "count"},
	{"cluster.forward_batches", "count"},
	{"cluster.rehomed", "count"},
	{"cluster.lost", "count"},
	{"wire.bytes_per_tuple", "B/tuple"},
	{"wire.attach_us_p50", "us"},
	{"store.record_tuples", "count"},
	{"store.record_dropped", "count"},
	{"store.record_bytes_per_tuple", "B/tuple"},
	{"store.ingest_tuples_per_s", "tuples/s"},
	{"store.backfill_tuples_per_s", "tuples/s"},
	// Loader, untraced phase.
	{"load.late_p50_ms", "ms"},
	{"load.late_p99_ms", "ms"},
	{"load.detect_latency_p90_ms", "ms"},
	{"load.detect_latency_p99_ms", "ms"},
	{"load.detect_latency_tail_ms", "ms"},
	{"load.detect_latency_tail_pct", "%"},
	{"load.detect_latency_samples", "count"},
	// Traced phase: the daemons' stage histograms and the client's.
	{"wire.flush_rtt_p50_us", "us"},
	{"wire.flush_rtt_p99_us", "us"},
	{"wire.ingress_p50_us", "us"},
	{"wire.batch_decode_p50_us", "us"},
	{"cluster.forward_p50_us", "us"},
	{"cluster.forward_p99_us", "us"},
	{"serve.queue_wait_p50_us", "us"},
	{"serve.queue_wait_p99_us", "us"},
	{"serve.detect_p50_us", "us"},
	{"serve.ingest_p50_us", "us"},
	{"obs.traced_batches", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"obs.trace_cpu_overhead_pct", "%"},
	// In-process layer budget, per tuple unless the name says otherwise.
	{"kinect.to_tuple_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"wire.encode_b1_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.decode_b1_ns", "ns"},
	{"wire.frame_io_us_per_batch", "us"},
	{"wire.det_encode_ns", "ns"},
	{"wire.det_decode_ns", "ns"},
	{"transform.tuple_ns", "ns"},
	{"stream.publish_ns", "ns"},
	{"cep.process_ns", "ns"},
	{"cep.pred_calls_per_tuple", "count"},
	{"cep.active_runs_mean", "count"},
	{"anduin.publish_ns", "ns"},
	{"anduin.unattributed_ns", "ns"},
	{"serve.feed_ns", "ns"},
	{"serve.queue_overhead_ns", "ns"},
	{"store.tap_ns", "ns"},
	{"store.append_ns", "ns"},
	{"store.read_ns", "ns"},
	{"store.backfill_ns", "ns"},
	{"store.seek_us", "us"},
	{"obs.observe_ns", "ns"},
	{"learn.learn_ms_per_gesture", "ms"},
	{"query.parse_us", "us"},
	{"anduin.compile_plan_us", "us"},
	{"anduin.deploy_plan_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// values collects measurements by metric name.
type values map[string]float64

// render attaches units to the values of the given table and insists the
// run produced exactly the table's metrics.
func (v values) render(table []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(table))
	for _, def := range table {
		val, ok := v[def.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		out[def.name] = metricValue{Value: val, Unit: def.unit}
	}
	if len(v) != len(table) {
		var extra []string
		for name := range v {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics missing from the table: %v", extra)
	}
	return out, nil
}

// manifest is BENCHMARK.json as the self-check mode and the tests read it.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}
