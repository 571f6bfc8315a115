// Package wire is the network ingestion layer of the serving runtime: a
// compact length-prefixed binary frame protocol spoken over TCP between
// remote sensor clients and a gestured server process, multiplexing many
// remote sessions onto one serve.Manager.
//
// The paper runs its learned CEP queries inside AnduIN, a networked DSMS
// that remote sensor clients publish into; this package is that deployment
// shape for the reproduction. Design points:
//
//   - the data plane (tuple batches, detection pushes) is hand-rolled
//     big-endian binary with reused buffers — no reflection, no JSON, no
//     per-tuple allocations beyond the tuple field arena itself;
//   - the control plane (attach/detach/flush/metrics) is small JSON
//     payloads, where clarity beats nanoseconds;
//   - backpressure propagates from the shard queues to the socket: each
//     connection's frames are processed synchronously on its reader
//     goroutine, so a full shard queue under serve.Block stops the read
//     loop and lets TCP flow control pace the remote producer, while
//     serve.DropOldest keeps the reader draining and reports the session's
//     cumulative drop count back to the client on every detection push and
//     flush acknowledgement.
//
// # Frame layout
//
// Every frame is a 5-byte header followed by a payload:
//
//	+----------------+---------+-------------------+
//	| length uint32  | type u8 | payload (length B) |
//	+----------------+---------+-------------------+
//
// length counts payload bytes only and must not exceed MaxFrame. Multi-byte
// integers are big-endian throughout.
//
// Data-plane payloads:
//
//	FrameBatch      handle u32 | count u16 | fields u16 |
//	                count × (ts i64 unix-ns | seq u64 | fields × f64) |
//	                [sent i64 unix-ns]
//	FrameDetections handle u32 | dropped u64 | count u16 |
//	                count × (nameLen u16 | name | queryID u32 |
//	                         start i64 | end i64 | nMeasures u16 |
//	                         nMeasures × f64)
//
// The top two bits of a batch's fields word are flags; the count is the
// word with both cleared (MaxTupleFields is 1024, so no count reaches
// them):
//
//	0x8000 traced    the trailing sent timestamp is present (the batch is
//	                 trace-sampled; see AttachOptions.TraceEvery)
//	0x4000 narrowed  each tuple carries only the raw fields of the read set
//	                 the server advertised at attach (AttachReply.Reads), in
//	                 that order, and fields is the length of that set
//
// A client sends narrowed batches exactly when its attach reply listed a
// read set. Every server accepts full-width batches from any client; a
// narrowed batch whose field count is not its session's advertised set is
// a protocol violation.
//
// Control-plane payloads are JSON-encoded structs (AttachRequest,
// AttachReply, SessionRef, SessionCounters, serve.Metrics, ErrorReply,
// Ping, Pong).
// Decoding is strict: a payload must be consumed exactly, and counts are
// validated against the remaining payload length before any allocation, so
// an adversarial length prefix can never make the decoder over-allocate.
package wire

import (
	"errors"
	"fmt"
	"time"
)

// ProtocolVersion identifies the frame protocol. It is carried in the
// attach handshake; servers reject clients speaking a different version.
const ProtocolVersion = 1

// Limits enforced by the codec. Frames above MaxFrame are rejected before
// their payload is read; batch geometry is validated against the actual
// payload size before decoding.
const (
	// MaxFrame bounds a frame payload (1 MiB): a full batch of 1024
	// 45-field tuples is ~376 KiB, so the cap leaves generous headroom
	// without letting a hostile peer demand unbounded buffers.
	MaxFrame = 1 << 20
	// MaxBatch bounds tuples per batch frame.
	MaxBatch = 1024
	// MaxTupleFields bounds attributes per tuple (the kinect schema has 45).
	MaxTupleFields = 1024
	// MaxDetections bounds detections per push frame.
	MaxDetections = 4096
)

// FrameType discriminates frame payloads.
type FrameType uint8

// Frame types. Client→server: Attach, Batch, Flush, Detach, MetricsReq.
// Server→client: AttachOK, Detections, FlushOK, DetachOK, MetricsOK, Error.
const (
	FrameInvalid    FrameType = 0
	FrameAttach     FrameType = 1  // JSON AttachRequest
	FrameAttachOK   FrameType = 2  // JSON AttachReply
	FrameDetach     FrameType = 3  // JSON SessionRef
	FrameDetachOK   FrameType = 4  // JSON SessionCounters
	FrameBatch      FrameType = 5  // binary tuple batch
	FrameDetections FrameType = 6  // binary detection push
	FrameFlush      FrameType = 7  // JSON SessionRef
	FrameFlushOK    FrameType = 8  // JSON SessionCounters
	FrameMetricsReq FrameType = 9  // empty
	FrameMetricsOK  FrameType = 10 // JSON serve.Metrics
	FrameError      FrameType = 11 // JSON ErrorReply
	FramePing       FrameType = 12 // JSON Ping
	FramePong       FrameType = 13 // JSON Pong

	// Migration control plane: a gateway moving a session between backends
	// seals the source (Begin), streams the recorded history out of it
	// (State), and finalizes or aborts the move (Commit). See MigrateBegin*,
	// MigrateState*, MigrateCommit* below.
	FrameMigrateBegin    FrameType = 14 // JSON MigrateBeginRequest
	FrameMigrateBeginOK  FrameType = 15 // JSON MigrateBeginReply
	FrameMigrateState    FrameType = 16 // JSON MigrateStateRequest
	FrameMigrateStateOK  FrameType = 17 // binary batch payload (empty = end of history)
	FrameMigrateCommit   FrameType = 18 // JSON MigrateCommitRequest
	FrameMigrateCommitOK FrameType = 19 // JSON SessionCounters

	// Offline backfill: a client (the fleet coordinator, or gesturereplay
	// directly) asks a server to evaluate compiled plans over recorded
	// streams it archives. Detections stream back per request-stream index
	// (FrameBackfillDet), then one FrameBackfillOK summarizes the run. See
	// BackfillRequest/BackfillReply.
	FrameBackfill    FrameType = 20 // JSON BackfillRequest
	FrameBackfillDet FrameType = 21 // binary detections payload (handle = stream index)
	FrameBackfillOK  FrameType = 22 // JSON BackfillReply

	frameTypeEnd FrameType = 23
)

// String implements fmt.Stringer.
func (t FrameType) String() string {
	names := [...]string{
		"invalid", "attach", "attach-ok", "detach", "detach-ok", "batch",
		"detections", "flush", "flush-ok", "metrics-req", "metrics-ok", "error",
		"ping", "pong", "migrate-begin", "migrate-begin-ok", "migrate-state",
		"migrate-state-ok", "migrate-commit", "migrate-commit-ok",
		"backfill", "backfill-det", "backfill-ok",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("frame(%d)", uint8(t))
}

// AttachRequest opens a session on the server. Gestures names the plans to
// deploy (empty = every registered plan). StartAt > 0 creates the session in
// catch-up mode: it is the migration cut ordinal, the server mutes detection
// pushes while the first StartAt tuples (the session's recorded history)
// replay into the fresh engine, and a MigrateCommit carrying the same
// ordinal unmutes it. Detections fired during catch-up were already
// delivered by the source backend; muting them is what makes a migration
// exactly-once from the client's point of view.
type AttachRequest struct {
	Version  int      `json:"version"`
	ID       string   `json:"id"`
	Gestures []string `json:"gestures,omitempty"`
	StartAt  uint64   `json:"start_at,omitempty"`
}

// AttachReply acknowledges an attach: the connection-local session handle
// used by all subsequent data frames, the raw tuple schema width, and the
// deployed plan names. Reads, when present, is the session's raw read set
// in ascending order: the only schema fields its plans and the transform
// read, fixed at attach. The client then sends narrowed batches carrying
// just those fields. Absent (a recording session, whose archive keeps whole
// tuples, or a server that predates read sets), every batch is full width.
type AttachReply struct {
	Handle uint32   `json:"handle"`
	Fields int      `json:"fields"`
	Plans  []string `json:"plans"`
	Reads  []int    `json:"reads,omitempty"`
}

// SessionRef addresses one attached session in control frames.
type SessionRef struct {
	Handle uint32 `json:"handle"`
}

// SessionCounters reports a session's ingestion accounting: tuples admitted
// (In), tuples that left the queue (Out), tuples evicted under DropOldest
// (Dropped), detections pushed to the client (Detections), and detections
// evicted from the push buffer because the client read too slowly
// (DetectionsDropped).
type SessionCounters struct {
	Handle            uint32 `json:"handle"`
	In                uint64 `json:"in"`
	Out               uint64 `json:"out"`
	Dropped           uint64 `json:"dropped"`
	Detections        uint64 `json:"detections"`
	DetectionsDropped uint64 `json:"detections_dropped"`
}

// Ping is a liveness probe. Seq is echoed back in the matching Pong so a
// prober can correlate probes with replies.
type Ping struct {
	Seq uint64 `json:"seq"`
}

// Pong answers a Ping with the server's identity and live-session count —
// enough for a cluster gateway to health-check a backend without paying for
// a full metrics snapshot.
type Pong struct {
	Seq      uint64 `json:"seq"`
	Name     string `json:"name,omitempty"`
	Sessions int    `json:"sessions"`
}

// MigrateBeginRequest seals a session for migration: the server flushes it,
// verifies the recorded history is complete (recorded == admitted — a lossy
// recording cannot reconstruct engine state), refuses further tuple feeds,
// and opens a history cursor. On any verification failure the session is
// left untouched and a session-scoped FrameError comes back instead.
type MigrateBeginRequest struct {
	Handle uint32 `json:"handle"`
}

// MigrateBeginReply acknowledges a seal. Ordinal is the cut: the number of
// tuples admitted (and recorded) by the sealed session. The target must
// replay exactly this many tuples before the flip.
type MigrateBeginReply struct {
	Handle  uint32 `json:"handle"`
	Ordinal uint64 `json:"ordinal"`
}

// MigrateStateRequest asks a sealed session for the next chunk of its
// recorded history. After is the count of tuples the requester already
// holds; the server repositions its cursor if it disagrees (a retry against
// a fresh target restarts from 0). The reply payload is a canonical batch
// encoding (handle field zero — the requester patches it) or empty once
// After reaches the cut.
type MigrateStateRequest struct {
	Handle uint32 `json:"handle"`
	After  uint64 `json:"after"`
}

// MigrateCommitRequest finalizes a migration leg. On a catch-up target
// (Abort false) the server flushes the session, verifies exactly Ordinal
// tuples were admitted, and unmutes detection pushes — from here the session
// is live on its new owner. On a sealed source (Abort true) the server
// unseals the session and drops the history cursor — the migration failed
// and the session resumes where it was, having lost nothing.
type MigrateCommitRequest struct {
	Handle  uint32 `json:"handle"`
	Ordinal uint64 `json:"ordinal"`
	Abort   bool   `json:"abort,omitempty"`
}

// BackfillRequest asks a server to evaluate compiled plans over recorded
// streams from its archive. Gestures names the plans (empty = every
// registered plan); SinceNs/UntilNs bound evaluation to event times in
// [Since, Until) (0 = unbounded). Detections stream back in
// FrameBackfillDet frames whose handle is the index into Streams — in
// stream order, each stream's detections in evaluation order — followed by
// one FrameBackfillOK. Streams the server does not archive are reported in
// the reply's Missing list rather than failing the request, so a fleet
// coordinator can retry just those on other backends. That much is
// guaranteed; when frames leave is not — a server evaluates several streams
// at a time and sends a stream's frames once the stream is done — and a
// request that fails (FrameError) may have delivered any prefix of the
// streams before the failing one, and nothing of that one.
type BackfillRequest struct {
	Streams  []string `json:"streams"`
	Gestures []string `json:"gestures,omitempty"`
	SinceNs  int64    `json:"since_ns,omitempty"`
	UntilNs  int64    `json:"until_ns,omitempty"`
}

// BackfillReply summarizes a backfill run: totals across the evaluated
// streams plus the request indices of streams this server has no recording
// of (their detections were not produced).
type BackfillReply struct {
	Records    uint64 `json:"records"`
	Tuples     uint64 `json:"tuples"`
	Detections uint64 `json:"detections"`
	Missing    []int  `json:"missing,omitempty"`
}

// ErrUnknownStream is the sentinel a Server.BackfillSource wraps (or
// returns) for a stream the server does not archive; the request reports
// the stream in BackfillReply.Missing instead of failing.
var ErrUnknownStream = errors.New("wire: unknown stream")

// ErrorReply reports a request failure. Handle 0 addresses the connection
// itself (protocol violations; the server closes the connection after).
type ErrorReply struct {
	Handle uint32 `json:"handle,omitempty"`
	Msg    string `json:"msg"`
}

// Error implements the error interface.
func (e *ErrorReply) Error() string { return "wire: server: " + e.Msg }

// decodeTime reconstructs an event time from wire nanoseconds in UTC, so
// both endpoints observe the identical instant regardless of host timezone.
func decodeTime(ns int64) time.Time { return time.Unix(0, ns).UTC() }
