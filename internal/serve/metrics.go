package serve

import (
	"fmt"
	"sort"
)

// ShardMetrics is a point-in-time snapshot of one shard's counters. The
// JSON tags are the wire metrics-frame format served to remote consumers.
type ShardMetrics struct {
	Shard      int    `json:"shard"`
	Sessions   int    `json:"sessions"`
	QueueDepth int    `json:"queue_depth"`
	Enqueued   uint64 `json:"enqueued"`
	Processed  uint64 `json:"processed"`
	Dropped    uint64 `json:"dropped"`
	Detections uint64 `json:"detections"`
}

// SessionMetrics is a point-in-time snapshot of one live session's
// ingestion counters. In/Out/Dropped/Detections are cumulative since the
// session was created; Queued is the instantaneous number of its tuples
// still sitting in the shard queue.
type SessionMetrics struct {
	ID         string `json:"id"`
	Shard      int    `json:"shard"`
	In         uint64 `json:"in"`
	Out        uint64 `json:"out"`
	Queued     uint64 `json:"queued"`
	Dropped    uint64 `json:"dropped"`
	Detections uint64 `json:"detections"`
}

// BackendMetrics is a point-in-time snapshot of one cluster backend as seen
// by a gateway fronting it: membership, proxied-session placement,
// forwarded traffic and failover accounting. A single-node server never
// fills these; the cluster gateway attaches them to its aggregated Metrics
// so one metrics frame describes the whole fleet, and lists the same rows
// at its admin plane's /backends.
type BackendMetrics struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Healthy reports the backend in service: live or draining, with a
	// current incarnation. In a gateway's Metrics it also means the
	// backend answered the metrics fetch, so its counters are in the
	// fleet totals.
	Healthy bool `json:"healthy"`
	// State is the gateway's lifecycle state for this backend: "live" (on
	// the ring, taking sessions), "draining" (on the ring but closed to new
	// sessions while Drain migrates its own), "drained" (off the ring with
	// no sessions, awaiting re-admission or removal), "recovering" (off the
	// ring, being re-dialed for re-admission) or "ejected" (retired after
	// the gateway's Close began, never re-dialed).
	State string `json:"state"`
	// Incarnation counts the incarnations built for this ID (initial dial
	// plus re-admissions); the current one carries this ordinal.
	Incarnation uint64 `json:"incarnation"`
	RingLoad    int    `json:"ring_load"` // sessions the ring charges to the backend
	Sessions    int    `json:"sessions"`  // proxied sessions currently homed here
	Batches     uint64 `json:"batches"`   // batch frames forwarded
	Tuples      uint64 `json:"tuples"`    // tuples forwarded
	// Detections counts detections this backend pushed back through the
	// gateway.
	Detections uint64 `json:"detections"`
	// Lost counts tuples whose serving state died with this backend: they
	// were forwarded here and the backend was ejected before a later
	// incarnation could re-absorb them. Surfaced to clients as drops.
	Lost uint64 `json:"lost"`
	// Rehomed counts sessions moved away from this backend by failover.
	Rehomed uint64 `json:"rehomed"`
	// Ejections counts how many of this backend's incarnations were
	// ejected; Readmissions counts admissions through the gateway's
	// recovery loop (a backend that was down at startup and came up is a
	// re-admission with zero ejections).
	Ejections    uint64 `json:"ejections"`
	Readmissions uint64 `json:"readmissions"`
}

// Metrics is the wire metrics frame: the one snapshot of a process's
// counters, served as JSON at /metrics.json and rendered by WriteProm.
// Counters are monotonically increasing since manager start; QueueDepth is
// instantaneous. A cluster gateway's frame holds fleet totals (the sums of
// its in-service backends' frames) and one Backends row per member only —
// per-shard and per-session rows stay in each backend's own frame.
type Metrics struct {
	Sessions   int              `json:"sessions"`
	Enqueued   uint64           `json:"enqueued"`
	Processed  uint64           `json:"processed"`
	Dropped    uint64           `json:"dropped"`
	Detections uint64           `json:"detections"`
	QueueDepth int              `json:"queue_depth"`
	Shards     []ShardMetrics   `json:"shards,omitempty"`
	PerSession []SessionMetrics `json:"per_session,omitempty"`
	Backends   []BackendMetrics `json:"backends,omitempty"`
}

// Metrics snapshots every shard's counters without pausing ingestion: the
// counters are independent atomics, so a snapshot is consistent per counter
// but not a cross-counter transaction — exactly what monitoring needs. One
// cross-counter invariant does hold: Processed + Dropped never exceeds
// Enqueued, because the outflow counters are loaded before the inflow
// counter (a tuple increments enqueued before processed/dropped, so reading
// in the opposite order can never observe more out than in).
func (m *Manager) Metrics() Metrics {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		sessions = append(sessions, s)
	}
	m.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })

	out := Metrics{Sessions: len(sessions)}
	for _, s := range sessions {
		// Load out before in: out trails in, so the difference can never
		// underflow however ingestion races the snapshot.
		o := s.out.Load()
		i := s.in.Load()
		out.PerSession = append(out.PerSession, SessionMetrics{
			ID:         s.id,
			Shard:      s.shard.id,
			In:         i,
			Out:        o,
			Queued:     i - o,
			Dropped:    s.dropped.Load(),
			Detections: s.detections.Load(),
		})
	}
	for _, sh := range m.shards {
		processed := sh.processed.Load()
		dropped := sh.dropped.Load()
		sh.mu.Lock()
		queued := sh.queued
		sh.mu.Unlock()
		sm := ShardMetrics{
			Shard:      sh.id,
			Sessions:   int(sh.sessions.Load()),
			QueueDepth: queued,
			Enqueued:   sh.enqueued.Load(),
			Processed:  processed,
			Dropped:    dropped,
			Detections: sh.detections.Load(),
		}
		out.Enqueued += sm.Enqueued
		out.Processed += sm.Processed
		out.Dropped += sm.Dropped
		out.Detections += sm.Detections
		out.QueueDepth += sm.QueueDepth
		out.Shards = append(out.Shards, sm)
	}
	return out
}

// String renders a compact one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("sessions=%d in=%d out=%d dropped=%d detections=%d depth=%d",
		m.Sessions, m.Enqueued, m.Processed, m.Dropped, m.Detections, m.QueueDepth)
}
