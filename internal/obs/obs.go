// Package obs is the observability core of the serving runtime: low-overhead
// primitives every other layer records into, plus the HTTP admin plane that
// exposes them.
//
// The design goal is that observing a production hot path costs nearly
// nothing when idle and a bounded, predictable amount when active:
//
//   - Histogram — a lock-free log-linear latency histogram. Recording is one
//     atomic add into a bucket indexed by bit arithmetic (no locks, no
//     floating point); snapshots are consistent-enough per-bucket copies that
//     merge across shards, backends and gateways, so a fleet-wide p999 is the
//     quantile of the summed buckets, not an average of averages. Relative
//     bucket error is bounded by 1/32 (~3%).
//   - Sampler — a deciding counter for 1-in-N sampling. The unsampled path
//     pays one atomic increment and a mask; everything expensive (timestamps,
//     histogram records, trace propagation) happens only on sampled events.
//   - Trace timestamps — a sampled batch frame carries its client-send time
//     on the wire (see package wire), letting every hop record its stage of
//     the client-send → gateway-forward → backend-enqueue → NFA-match →
//     detection-ack pipeline into stage histograms without any per-tuple
//     cost on unsampled traffic.
//   - Logger — a structured, leveled event log with a bounded in-memory ring,
//     replacing ad-hoc printf logging so lifecycle events carry fields
//     (backend ID, incarnation, state) that the admin plane can serve as
//     JSON. A nil *Logger is a valid no-op logger.
//   - AdminServer — one HTTP listener per process serving /metrics
//     (Prometheus text exposition), /metrics.json, /healthz, /readyz,
//     /events and /debug/pprof/*.
//
// One metrics system: /metrics is the one rendering of every counter and
// histogram (each layer's WriteProm), and /metrics.json serves exactly the
// process's wire metrics frame (serve.Metrics) as JSON — no second copy of
// a counter, and no histogram summaries beside the exposition's buckets.
//
// Cardinality rules: metric labels are bounded by configuration, never by
// traffic — backend IDs and shard indexes are fine, session IDs are not
// (sessions appear only in aggregate counters and in the metrics frame's
// per-session rows, a point-in-time snapshot).
package obs

import "sync/atomic"

// Sampler decides 1-in-N sampling with a single atomic counter. N is rounded
// up to a power of two so the decision is an increment and a mask — cheap
// enough for a per-batch hot path. A zero or negative N samples nothing.
type Sampler struct {
	mask uint64
	on   bool
	n    atomic.Uint64
}

// NewSampler returns a sampler selecting roughly one event in every-th.
// every <= 0 disables sampling; every is rounded up to a power of two
// (so 1000 samples 1/1024). every == 1 samples everything.
func NewSampler(every int) *Sampler {
	s := &Sampler{}
	if every <= 0 {
		return s
	}
	p := uint64(1)
	for p < uint64(every) {
		p <<= 1
	}
	s.mask = p - 1
	s.on = true
	return s
}

// Sample reports whether this event is selected. Safe for concurrent use; a
// nil sampler never samples.
func (s *Sampler) Sample() bool {
	if s == nil || !s.on {
		return false
	}
	return s.n.Add(1)&s.mask == 0
}
