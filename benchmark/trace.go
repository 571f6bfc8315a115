package main

import (
	"fmt"
	"path/filepath"
	"time"

	"gesturecep/internal/obs"
)

// runTraced is a -trace 1 run, the source of the per-layer metrics. Against
// one topology with the admin planes on it runs two phases of half the
// requested length each — untraced, for the process-level and loader
// numbers, then with one batch in traceEvery carrying a trace timestamp,
// for the daemons' stage histograms and the tracing overhead — and then
// walks the layers in-process for the cost budget.
func runTraced(sup *supervisor, w workload, in *inputs, seconds float64, breakOracle bool) (values, *verdict, error) {
	r, sessions, _, err := setUp(sup, w, in, 0, true)
	if err != nil {
		return nil, nil, err
	}
	plain, err := r.runPhase(r.conns, sessions, seconds/2)
	if err != nil {
		return nil, nil, err
	}

	tracedConns, err := dialAll(r.front().addr)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range tracedConns {
		c.FlushRTT = obs.NewHistogram()
	}
	tracedSessions, err := attachSessions(tracedConns, in.recs, "t", w.sessions, w.batch, traceEvery)
	if err != nil {
		return nil, nil, err
	}
	traced, err := r.runPhase(tracedConns, tracedSessions, seconds/2)
	if err != nil {
		return nil, nil, err
	}

	backendProm, err := scrapeAll(r.backends)
	if err != nil {
		return nil, nil, err
	}
	var gatewayProm [][]promSample
	if r.gateway != nil {
		if gatewayProm, err = scrapeAll([]*daemon{r.gateway}); err != nil {
			return nil, nil, err
		}
	}
	m, rss, err := r.finish()
	if err != nil {
		return nil, nil, err
	}
	closeAll(tracedConns)
	sup.stopAll() // the oracle and the layer budget get both cores
	v, err := judge(in, w, plain, m, r.sent, breakOracle)
	if err != nil {
		return nil, nil, err
	}
	v2, err := judge(in, w, traced, m, r.sent, breakOracle)
	if err != nil {
		return nil, nil, err
	}
	v.attempted += v2.attempted
	v.failed += v2.failed
	v.reasons = append(v.reasons, v2.reasons...)

	vals, tr, err := layerBudget(in, sup.tmp)
	if err != nil {
		return nil, nil, err
	}
	if err := tr.write(filepath.Join(sup.root, "benchmark", "out", "trace.jsonl")); err != nil {
		return nil, nil, err
	}

	// Process level, from the untraced phase. The three CPU rows add up to
	// all the CPU the phase burnt; gateway + backend is the SUT's.
	perMtuple := 1e6 / float64(plain.fed)
	var backendCPU, backendRSS float64
	for _, d := range r.backends {
		backendCPU += plain.cpu[d]
		backendRSS += rss[d]
	}
	vals["serve.backend_cpu_s_per_mtuple"] = backendCPU * perMtuple
	vals["serve.backend_rss_mb"] = backendRSS
	vals["cluster.gateway_cpu_s_per_mtuple"] = plain.cpu[r.gateway] * perMtuple // 0 without a gateway
	vals["cluster.gateway_rss_mb"] = rss[r.gateway]
	vals["load.cpu_s_per_mtuple"] = plain.loadCPU * perMtuple
	vals["load.cpu_slowdown"] = plain.slowdown
	vals["serve.tuples_in"] = float64(m.Enqueued)
	vals["serve.tuples_out"] = float64(m.Processed)
	vals["serve.tuples_dropped"] = float64(m.Dropped)
	vals["serve.detections"] = float64(m.Detections)
	var batches, rehomed, lost uint64
	for _, be := range m.Backends {
		batches, rehomed, lost = batches+be.Batches, rehomed+be.Rehomed, lost+be.Lost
	}
	vals["cluster.forward_batches"] = float64(batches)
	vals["cluster.rehomed"] = float64(rehomed)
	vals["cluster.lost"] = float64(lost)
	vals["wire.bytes_per_tuple"] = float64(plain.bytes) / float64(plain.fed)
	var attach []time.Duration
	for _, s := range sessions {
		attach = append(attach, s.attach)
	}
	vals["wire.attach_us_p50"] = us(percentile(sortDurations(attach), 50))

	// The store rows. Recorded tuples come from the backfill replies, not
	// from the daemon's store_record_tuples_total, which trails the truth
	// by a recorder buffer while sessions are live.
	vals["store.record_tuples"], vals["store.record_dropped"] = 0, 0
	vals["store.record_bytes_per_tuple"] = 0
	vals["store.ingest_tuples_per_s"], vals["store.backfill_tuples_per_s"] = 0, 0
	if w.record {
		vals["store.record_tuples"] = float64(plain.backfill.reply.Tuples + traced.backfill.reply.Tuples)
		vals["store.record_dropped"] = promSum(backendProm, "store_record_dropped_total")
		vals["store.record_bytes_per_tuple"] = promSum(backendProm, "store_record_bytes_total") /
			promSum(backendProm, "store_record_tuples_total")
		vals["store.ingest_tuples_per_s"] = plain.ingestRate()
		vals["store.backfill_tuples_per_s"] = plain.backfill.rate()
	}

	// The loader's own rows: generator lateness (open loop only) and the
	// latency tail, the latter at the highest percentile the sample count
	// supports as well as at the two fixed ones.
	late := sortDurations(plain.late)
	vals["load.late_p50_ms"] = ms(percentile(late, 50))
	vals["load.late_p99_ms"] = ms(percentile(late, 99))
	lat := plain.latencies()
	tail := tailPercentile(len(lat))
	vals["load.detect_latency_p90_ms"] = ms(percentile(lat, 90))
	vals["load.detect_latency_p99_ms"] = ms(percentile(lat, 99))
	vals["load.detect_latency_tail_ms"] = ms(percentile(lat, tail))
	vals["load.detect_latency_tail_pct"] = tail
	vals["load.detect_latency_samples"] = float64(len(lat))

	// The traced phase: stage histograms off the admin planes, merged
	// across backends, and the client's flush round trips.
	decode := mergedHist(backendProm, "wire_batch_decode_seconds")
	forward := mergedHist(gatewayProm, "cluster_backend_forward_seconds")
	queue := mergedHist(backendProm, "serve_queue_wait_seconds")
	vals["wire.flush_rtt_p50_us"] = us(traced.flushRTT.Quantile(0.50))
	vals["wire.flush_rtt_p99_us"] = us(traced.flushRTT.Quantile(0.99))
	vals["wire.ingress_p50_us"] = us(mergedHist(backendProm, "wire_ingress_seconds").quantile(0.50))
	vals["wire.batch_decode_p50_us"] = us(decode.quantile(0.50))
	vals["cluster.forward_p50_us"] = us(forward.quantile(0.50))
	vals["cluster.forward_p99_us"] = us(forward.quantile(0.99))
	vals["serve.queue_wait_p50_us"] = us(queue.quantile(0.50))
	vals["serve.queue_wait_p99_us"] = us(queue.quantile(0.99))
	vals["serve.detect_p50_us"] = us(mergedHist(backendProm, "serve_detect_seconds").quantile(0.50))
	vals["serve.ingest_p50_us"] = us(mergedHist(backendProm, "serve_ingest_seconds").quantile(0.50))
	vals["obs.traced_batches"] = decode.count()
	if decode.count() == 0 {
		return nil, nil, fmt.Errorf("traced phase: no daemon saw a trace-sampled batch")
	}
	// The two phases are compared in reference seconds (see calib.go): the
	// host's speed may drift between them by more than tracing costs.
	plainRate, tracedRate := plain.ingestRate()*plain.slowdown, traced.ingestRate()*traced.slowdown
	plainCPU, tracedCPU := plain.ingestCPU()/plain.slowdown, traced.ingestCPU()/traced.slowdown
	vals["obs.trace_overhead_pct"] = 100 * (plainRate - tracedRate) / plainRate
	vals["obs.trace_cpu_overhead_pct"] = 100 * (tracedCPU - plainCPU) / plainCPU
	return vals, v, nil
}
