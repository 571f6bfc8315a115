package serve

import (
	"fmt"

	"gesturecep/internal/obs"
)

// Instruments is the serve layer's set of stage-latency histograms, fed by
// trace-sampled tuples only (see obs.Sampler and the wire trace flag): the
// unsampled hot path never reads a clock for them. Every manager has its
// own (Manager.Instruments).
type Instruments struct {
	// QueueWait measures enqueue → dequeue: how long a traced tuple sat in
	// its shard queue before the worker picked it up.
	QueueWait *obs.Histogram
	// Detect measures the engine publish of a traced tuple: NFA evaluation
	// plus synchronous detection fan-out.
	Detect *obs.Histogram
	// Ingest measures client-send → processed, end to end from the traced
	// batch's wire timestamp (client clock) to local publish completion.
	// Cross-process, so clock offset is included; within one host (the e2e
	// and bench setups) it is the true pipeline latency.
	Ingest *obs.Histogram
}

func newInstruments() *Instruments {
	return &Instruments{
		QueueWait: obs.NewHistogram(),
		Detect:    obs.NewHistogram(),
		Ingest:    obs.NewHistogram(),
	}
}

// Instruments returns the manager's stage histograms.
func (m *Manager) Instruments() *Instruments { return m.ins }

// Closed reports whether Close has run — the admin plane's liveness probe:
// a gestured process whose manager closed is done serving.
func (m *Manager) Closed() bool { return m.closed.Load() }

// WriteProm writes the snapshot as Prometheus exposition text. Per-session
// counters are deliberately absent — session IDs are traffic-bounded
// cardinality, which belongs in the frame's per-session rows, not in label
// values. Shards and backends are configuration-bounded, so they label
// freely.
func (m Metrics) WriteProm(w *obs.PromWriter) {
	w.Gauge("serve_sessions", "Live sessions.", nil, float64(m.Sessions))
	w.Gauge("serve_queue_depth", "Tuples sitting in shard queues.", nil, float64(m.QueueDepth))
	const tuplesHelp = "Tuples by ingestion stage (enqueued, processed, dropped)."
	w.Counter("serve_tuples_total", tuplesHelp, obs.L("stage", "enqueued"), m.Enqueued)
	w.Counter("serve_tuples_total", tuplesHelp, obs.L("stage", "processed"), m.Processed)
	w.Counter("serve_tuples_total", tuplesHelp, obs.L("stage", "dropped"), m.Dropped)
	w.Counter("serve_detections_total", "Detections published.", nil, m.Detections)
	for _, sh := range m.Shards {
		shard := fmt.Sprintf("%d", sh.Shard)
		w.Gauge("serve_shard_sessions", "Sessions pinned per shard.", obs.L("shard", shard), float64(sh.Sessions))
		w.Gauge("serve_shard_queue_depth", "Queued tuples per shard.", obs.L("shard", shard), float64(sh.QueueDepth))
		const shardHelp = "Per-shard tuples by ingestion stage."
		w.Counter("serve_shard_tuples_total", shardHelp, obs.L("shard", shard).Add("stage", "enqueued"), sh.Enqueued)
		w.Counter("serve_shard_tuples_total", shardHelp, obs.L("shard", shard).Add("stage", "processed"), sh.Processed)
		w.Counter("serve_shard_tuples_total", shardHelp, obs.L("shard", shard).Add("stage", "dropped"), sh.Dropped)
		w.Counter("serve_shard_detections_total", "Per-shard detections.", obs.L("shard", shard), sh.Detections)
	}
	for _, be := range m.Backends {
		l := obs.L("backend", be.ID)
		up := 0.0
		if be.Healthy {
			up = 1
		}
		w.Gauge("cluster_backend_up", "1 when the backend is in service (live or draining) and answered the gateway's metrics fetch.", l, up)
		live := 0.0
		if be.State == "live" {
			live = 1
		}
		w.Gauge("cluster_backend_live", "1 when the backend is live: on the routing ring and open to new sessions.", l, live)
		w.Gauge("cluster_backend_sessions", "Proxied sessions homed on the backend.", l, float64(be.Sessions))
		w.Counter("cluster_backend_batches_total", "Batch frames forwarded to the backend.", l, be.Batches)
		w.Counter("cluster_backend_tuples_total", "Tuples forwarded to the backend.", l, be.Tuples)
		w.Counter("cluster_backend_detections_total", "Detections pushed back by the backend.", l, be.Detections)
		w.Counter("cluster_backend_lost_total", "Tuples lost to backend failures.", l, be.Lost)
		w.Counter("cluster_backend_rehomed_total", "Sessions moved away by failover.", l, be.Rehomed)
		w.Counter("cluster_backend_ejections_total", "Backend incarnations ejected.", l, be.Ejections)
		w.Counter("cluster_backend_readmissions_total", "Backend incarnations re-admitted.", l, be.Readmissions)
		w.Counter("cluster_backend_incarnations_total", "Incarnations built (initial dial plus re-admissions).", l, be.Incarnation)
		w.Gauge("cluster_backend_ring_load", "Sessions the ring charges to the backend.", l, float64(be.RingLoad))
	}
}

// WriteProm writes the stage histograms as Prometheus exposition text.
func (ins *Instruments) WriteProm(w *obs.PromWriter) {
	w.Histogram("serve_queue_wait_seconds", "Shard-queue wait of trace-sampled tuples.", nil, ins.QueueWait.Snapshot())
	w.Histogram("serve_detect_seconds", "Engine publish latency of trace-sampled tuples.", nil, ins.Detect.Snapshot())
	w.Histogram("serve_ingest_seconds", "Client-send to processed latency of trace-sampled tuples.", nil, ins.Ingest.Snapshot())
}
