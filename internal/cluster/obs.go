package cluster

import (
	"fmt"

	"gesturecep/internal/obs"
)

// LiveBackends reports how many configured backends are currently on the
// ring, alongside the configured total.
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

// WriteProm writes the gateway's full Prometheus exposition: the aggregated
// fleet metrics (which include the per-backend proxy counters) plus the
// gateway-only series — per-backend forward-latency and probe-RTT histograms,
// incarnation counts, ring load, and the migration plane's counters.
func (gw *Gateway) WriteProm(w *obs.PromWriter) {
	gw.Metrics().WriteProm(w)
	for _, m := range gw.fleet.snapshot() {
		stats := m.stats
		l := obs.L("backend", m.id)
		w.Histogram("cluster_backend_forward_seconds",
			"ProxyBatch forward latency of trace-sampled batches.", l, stats.forward.Snapshot())
		w.Histogram("cluster_backend_probe_seconds",
			"Health-probe round-trip time.", l, stats.probeRTT.Snapshot())
		w.Counter("cluster_backend_probes_total", "Successful health probes.", l, stats.probes.Load())
		w.Counter("cluster_backend_incarnations_total",
			"Incarnations built (initial dial plus re-admissions).", l, stats.incarnations.Load())
		w.Gauge("cluster_backend_ring_load", "Sessions the ring charges to the backend.", l,
			float64(gw.fleet.ring.Load(m.id)))
	}
	live, total := gw.LiveBackends()
	w.Gauge("cluster_backends_live", "Backends currently on the ring.", nil, float64(live))
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

// ForwardStats summarizes the per-backend stage histograms for the JSON
// metrics plane, keyed by backend ID.
func (gw *Gateway) ForwardStats() map[string]obs.HistStats {
	members := gw.fleet.snapshot()
	out := make(map[string]obs.HistStats, len(members))
	for _, m := range members {
		out[m.id] = m.stats.forward.Snapshot().Stats()
	}
	return out
}

// MigrationStats is the migration plane's counter snapshot: how many
// sessions moved, how many moves failed, how many tuples were replayed into
// targets, and the per-move duration distribution.
type MigrationStats struct {
	Migrations uint64        `json:"migrations"`
	Failed     uint64        `json:"failed"`
	Tuples     uint64        `json:"tuples"`
	Duration   obs.HistStats `json:"duration"`
}

// MigrationStats snapshots the migration counters.
func (gw *Gateway) MigrationStats() MigrationStats {
	return MigrationStats{
		Migrations: gw.migrations.Load(),
		Failed:     gw.migrationsFailed.Load(),
		Tuples:     gw.migratedTuples.Load(),
		Duration:   gw.migrateDur.Snapshot().Stats(),
	}
}
