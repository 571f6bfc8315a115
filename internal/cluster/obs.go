package cluster

import (
	"fmt"
	"time"

	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
)

// LiveBackends reports how many configured backends are live — on the ring
// and open to new sessions (a draining backend is on the ring but closed) —
// alongside the configured total.
func (gw *Gateway) LiveBackends() (live, total int) {
	members := gw.fleet.snapshot()
	for _, m := range members {
		if m.state == StateLive {
			live++
		}
	}
	return live, len(members)
}

// Ready implements the admin plane's readiness probe: nil while at least one
// backend is live (the gateway can place sessions), an error otherwise. A
// gateway that started with its whole fleet down is running but unready —
// exactly the state an orchestrator should drain traffic around — and flips
// ready the moment a recovery loop admits a backend.
func (gw *Gateway) Ready() error {
	live, total := gw.LiveBackends()
	if live == 0 {
		return fmt.Errorf("cluster: 0 of %d backends live", total)
	}
	return nil
}

// Events returns the gateway's recent structured lifecycle events, oldest
// first — the admin plane's /events source.
func (gw *Gateway) Events(n int) []obs.Event { return gw.log.Recent(n) }

// WriteProm writes the gateway's full Prometheus exposition: its metrics
// frame (fleet totals and the per-backend rows) plus the gateway-only
// series — per-backend forward-latency and probe-RTT histograms, probe
// counts, and the migration and backfill planes' counters.
func (gw *Gateway) WriteProm(w *obs.PromWriter) {
	members, frame := gw.metrics()
	frame.WriteProm(w)
	for _, m := range members {
		stats := m.stats
		l := obs.L("backend", m.id)
		w.Histogram("cluster_backend_forward_seconds",
			"ProxyBatch forward latency of trace-sampled batches.", l, stats.forward.Snapshot())
		w.Histogram("cluster_backend_probe_seconds",
			"Health-probe round-trip time.", l, stats.probeRTT.Snapshot())
		w.Counter("cluster_backend_probes_total", "Successful health probes.", l, stats.probes.Load())
	}
	live, total := gw.LiveBackends()
	w.Gauge("cluster_backends_live", "Backends live: on the ring and open to new sessions.", nil, float64(live))
	w.Gauge("cluster_backends_total", "Configured backends.", nil, float64(total))
	w.Counter("cluster_events_total", "Structured lifecycle events retained since start.", nil, gw.log.Total())
	w.Counter("cluster_migrations_total", "Completed live session migrations.", nil, gw.migrations.Load())
	w.Counter("cluster_migrations_failed_total", "Session migrations that failed or fell back to lossy re-home.", nil, gw.migrationsFailed.Load())
	w.Counter("cluster_migrated_tuples_total", "Tuples replayed into migration targets.", nil, gw.migratedTuples.Load())
	w.Histogram("cluster_migration_seconds", "Per-session live migration duration.", nil, gw.migrateDur.Snapshot())
	w.Counter("cluster_backfills_total", "Completed fleet backfill runs.", nil, gw.backfills.Load())
	w.Counter("cluster_backfills_failed_total", "Fleet backfill runs that failed outright.", nil, gw.backfillsFailed.Load())
	w.Counter("cluster_backfill_streams_total", "Recorded streams evaluated by fleet backfills.", nil, gw.backfillStreams.Load())
	w.Histogram("cluster_backfill_seconds", "Per-run fleet backfill duration.", nil, gw.backfillDur.Snapshot())
}

// Metrics is the gateway's metrics frame: the fleet totals — the sums of
// every in-service backend's own frame — and one row per member, in
// admission order. A row reads Healthy only when its backend is in service
// and answered the fetch, so its counters are in the totals.
func (gw *Gateway) Metrics() serve.Metrics {
	_, m := gw.metrics()
	return m
}

// metrics builds the frame and returns the member snapshot its rows were
// made from. Every in-service backend is asked at once and the answers are
// collected under one ProbeTimeout deadline, so a wedged backend costs the
// caller (a front connection's reader goroutine, or a scrape) one timeout,
// not one per backend, and renders as an unhealthy row. A fetch that misses
// the deadline stays parked until its backend answers or is ejected.
func (gw *Gateway) metrics() ([]member, serve.Metrics) {
	members, rows := gw.backendRows()
	type answer struct {
		i   int
		bm  serve.Metrics
		err error
	}
	answers := make(chan answer, len(members))
	pending := 0
	for i, m := range members {
		if !rows[i].Healthy {
			continue
		}
		rows[i].Healthy = false // until it answers
		pending++
		go func() {
			bm, err := m.be.cl.Metrics()
			answers <- answer{i, bm, err}
		}()
	}
	out := serve.Metrics{Backends: rows}
	timeout := time.NewTimer(gw.cfg.ProbeTimeout)
	defer timeout.Stop()
	for ; pending > 0; pending-- {
		var a answer
		select {
		case a = <-answers:
		case <-timeout.C:
			return members, out
		}
		if a.err != nil {
			continue
		}
		rows[a.i].Healthy = true
		out.Sessions += a.bm.Sessions
		out.Enqueued += a.bm.Enqueued
		out.Processed += a.bm.Processed
		out.Dropped += a.bm.Dropped
		out.Detections += a.bm.Detections
		out.QueueDepth += a.bm.QueueDepth
	}
	return members, out
}

// backendRows is the one builder of per-backend rows — for Metrics, for
// /backends (BackendsInfo) and so for the exposition's per-backend series —
// over one fleet snapshot, whose members it returns alongside, index for
// index. Healthy here means in service: live or draining, on an
// incarnation not yet retired. It fetches nothing from the backends.
func (gw *Gateway) backendRows() ([]member, []serve.BackendMetrics) {
	members := gw.fleet.snapshot()
	rows := make([]serve.BackendMetrics, len(members))
	for i, m := range members {
		st := m.stats
		inService := (m.state == StateLive || m.state == StateDraining) && m.be != nil && !m.be.isEjected()
		rows[i] = serve.BackendMetrics{
			ID:           m.id,
			Addr:         m.addr,
			Healthy:      inService,
			State:        string(m.state),
			Incarnation:  st.incarnations.Load(),
			RingLoad:     gw.fleet.ring.Load(m.id),
			Batches:      st.batches.Load(),
			Tuples:       st.tuples.Load(),
			Detections:   st.detections.Load(),
			Lost:         st.lost.Load(),
			Rehomed:      st.rehomed.Load(),
			Ejections:    st.ejections.Load(),
			Readmissions: st.readmissions.Load(),
		}
		if m.be != nil {
			rows[i].Sessions = m.be.sessionCount()
		}
	}
	return members, rows
}
