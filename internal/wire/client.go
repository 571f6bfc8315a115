package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// DefaultBatchSize is the number of tuples buffered client-side before a
// batch frame is flushed to the socket.
const DefaultBatchSize = 64

// Client is one wire-protocol connection. Multiple remote sessions may be
// attached and fed concurrently; socket writes are serialized internally
// and control round trips are pipelined: any number may be in flight, and
// replies are matched to requests in wire order (the server processes each
// connection's frames serially and replies in order).
type Client struct {
	c net.Conn

	// FlushRTT, when non-nil, records the round-trip time of every Flush
	// and Detach control exchange — the client's view of "my tuples are
	// fully processed" latency. Set it before issuing traffic; the
	// histogram is nil-safe so leaving it unset costs nothing.
	FlushRTT *obs.Histogram

	wmu sync.Mutex
	w   *Writer

	// co, when non-nil, replaces direct Writer access: every frame is
	// enqueued to the per-connection flusher goroutine, which gathers
	// concurrent frames into single vectored writes. Enabled by the cluster
	// gateway on its backend connections (EnableCoalescing); set once and
	// never cleared. Atomic because the read loop, started by NewClient
	// before EnableCoalescing can run, reads it when the connection fails.
	co atomic.Pointer[coalescer]

	// waiters is the FIFO of in-flight control round trips; the read loop
	// dispatches each control reply to the head. Appends happen in the same
	// critical section as the request's write (or enqueue), so queue order
	// always matches wire order. A backfill request additionally carries a
	// detection callback: its FrameBackfillDet frames arrive while the
	// request is the queue head and are delivered through the callback
	// WITHOUT popping it — only the summarizing reply (or an error) pops.
	pmu     sync.Mutex
	waiters []pendingReq

	mu       sync.Mutex
	sessions map[uint32]*RemoteSession

	closed atomic.Bool
	err    atomic.Value // error that killed the connection
	done   chan struct{}
}

type controlResp struct {
	frameType FrameType
	payload   []byte // copied out of the reader buffer
}

// pendingReq is one in-flight control round trip. onDets is non-nil only
// for backfill requests; the read loop calls it for every FrameBackfillDet
// frame that arrives while this request heads the queue.
type pendingReq struct {
	ch     chan controlResp
	onDets func(streamIdx uint32, dets []anduin.Detection)
}

// Dial connects to a gestured server.
func Dial(addr string) (*Client, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// DialTimeout connects to a gestured server, bounding the TCP connect
// instead of waiting out the OS default.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// Redial dials addr and proves the server is actually serving — one ping
// round trip must complete within timeout — before handing the connection
// out. A bare TCP accept is not liveness: a listen backlog happily accepts
// for a process that is wedged or half-dead, which is exactly the state a
// recovering cluster backend may be in. On any failure the connection is
// closed and an error returned; the in-flight ping is unblocked by that
// close, so a timed-out Redial leaves no goroutine behind.
func Redial(addr string, timeout time.Duration) (*Client, error) {
	cl, err := DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() {
		_, err := cl.Ping(0)
		done <- err
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("wire: redial %s: %w", addr, err)
		}
		return cl, nil
	case <-timer.C:
		cl.Close()
		<-done
		return nil, fmt.Errorf("wire: redial %s: no pong within %v", addr, timeout)
	}
}

// NewClient speaks the wire protocol over an established connection and
// takes ownership of it.
func NewClient(c net.Conn) *Client {
	cl := &Client{
		c:        c,
		w:        NewWriter(c),
		sessions: make(map[uint32]*RemoteSession),
		done:     make(chan struct{}),
	}
	go cl.readLoop()
	return cl
}

// EnableCoalescing routes every subsequent frame write through a dedicated
// flusher goroutine that gathers frames from concurrent producers into
// single vectored writes — the cluster gateway enables it on each backend
// connection so many front sessions share one syscall per flush cycle.
// Call it once, while no other goroutine is using the client: a frame
// written concurrently with the switch could bypass the flusher and
// interleave with its vectored write. Round trips that completed earlier
// (Redial's liveness ping) are fine. A connection that already failed gets
// a coalescer that is poisoned on the spot, exactly as fail would have.
func (cl *Client) EnableCoalescing() {
	if cl.co.Load() != nil {
		return
	}
	co := newCoalescer(cl)
	cl.co.Store(co)
	// fail sets closed and then loads co; this stores co and then loads
	// closed — so whichever way the two interleave, one of them poisons.
	if cl.closed.Load() {
		co.poison(cl.closedErr())
	}
}

// Close tears down the connection. Attached sessions become unusable.
func (cl *Client) Close() error {
	if cl.closed.Swap(true) {
		return nil
	}
	err := cl.c.Close()
	if co := cl.co.Load(); co != nil {
		co.stop()
	}
	<-cl.done
	return err
}

// errBox gives atomic.Value a single concrete type to store errors under.
type errBox struct{ err error }

// Err returns the error that terminated the connection, if any.
func (cl *Client) Err() error {
	if b, ok := cl.err.Load().(errBox); ok {
		return b.err
	}
	return nil
}

// fail records the connection-killing error and wakes pending requests.
// The first failure wins: a write error that kills the socket is not
// overwritten by the "use of closed network connection" noise the read
// loop produces moments later, and a deliberate Close (closed already set)
// records no error at all. It returns the canonical connection error so
// call sites surface the root cause rather than whatever secondary error
// they happened to observe.
func (cl *Client) fail(err error) error {
	if !cl.closed.Swap(true) {
		cl.err.Store(errBox{err})
	}
	cl.c.Close()
	if co := cl.co.Load(); co != nil {
		// Wake the flusher and any producers blocked on backpressure; the
		// flusher releases still-queued pooled buffers and exits.
		co.poison(err)
	}
	return cl.closedErr()
}

// readLoop dispatches incoming frames: detection pushes go straight to
// their session, control replies to the single in-flight request.
func (cl *Client) readLoop() {
	defer close(cl.done)
	r := NewReader(cl.c)
	for {
		f, err := r.Next()
		if err != nil {
			cl.fail(err)
			return
		}
		switch f.Type {
		case FrameDetections:
			handle, dropped, dets, err := DecodeDetections(f.Payload)
			if err != nil {
				cl.fail(err)
				return
			}
			cl.mu.Lock()
			rs := cl.sessions[handle]
			cl.mu.Unlock()
			if rs != nil {
				rs.deliver(dropped, dets)
			}
		case FrameBackfillDet:
			// Detections of the head backfill request: deliver through its
			// callback without popping — the summarizing FrameBackfillOK
			// (or a FrameError) completes the round trip.
			streamIdx, _, dets, err := DecodeDetections(f.Payload)
			if err != nil {
				cl.fail(err)
				return
			}
			cl.pmu.Lock()
			var onDets func(uint32, []anduin.Detection)
			if len(cl.waiters) > 0 {
				onDets = cl.waiters[0].onDets
			}
			cl.pmu.Unlock()
			if onDets == nil {
				cl.fail(fmt.Errorf("wire: unsolicited %s frame", f.Type))
				return
			}
			onDets(streamIdx, dets)
		case FrameAttachOK, FrameFlushOK, FrameDetachOK, FrameMetricsOK, FramePong,
			FrameMigrateBeginOK, FrameMigrateStateOK, FrameMigrateCommitOK,
			FrameBackfillOK, FrameError:
			payload := append([]byte(nil), f.Payload...)
			cl.pmu.Lock()
			var waiter chan controlResp
			if len(cl.waiters) > 0 {
				waiter = cl.waiters[0].ch
				cl.waiters = cl.waiters[1:]
			}
			cl.pmu.Unlock()
			if waiter == nil {
				cl.fail(fmt.Errorf("wire: unsolicited %s frame", f.Type))
				return
			}
			waiter <- controlResp{frameType: f.Type, payload: payload}
		default:
			cl.fail(fmt.Errorf("wire: unexpected %s frame from server", f.Type))
			return
		}
	}
}

// roundTrip sends one control frame and waits for the matching reply type,
// unmarshalling its payload into out (nil discards it). Round trips
// pipeline: concurrent callers each get the reply matching their request's
// position in wire order. A FrameError reply is surfaced as *ErrorReply.
func (cl *Client) roundTrip(req FrameType, v any, wantReply FrameType, out any) error {
	return cl.roundTripWith(req, v, wantReply, out, nil)
}

// roundTripWith is roundTrip with an optional per-request detection
// callback (backfill requests stream detections before their reply).
func (cl *Client) roundTripWith(req FrameType, v any, wantReply FrameType, out any,
	onDets func(uint32, []anduin.Detection)) error {
	payload, err := cl.roundTripRaw(req, v, wantReply, onDets)
	if err != nil || out == nil {
		return err
	}
	return unmarshalStrict(payload, out)
}

// roundTripRaw is the one control round trip: it queues the request's
// waiter, writes the frame (through the coalescer when enabled) and returns
// the raw reply bytes, already copied out of the read buffer by the read
// loop — for replies whose payload is not JSON, and under every roundTrip.
// FrameError replies surface as *ErrorReply; any other unexpected reply
// type fails the connection.
func (cl *Client) roundTripRaw(req FrameType, v any, wantReply FrameType,
	onDets func(uint32, []anduin.Detection)) ([]byte, error) {
	if cl.closed.Load() {
		return nil, cl.closedErr()
	}
	ch := make(chan controlResp, 1)
	pr := pendingReq{ch: ch, onDets: onDets}
	if co := cl.co.Load(); co != nil {
		payload, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		// The marshalled payload is freshly allocated, so the coalescer may
		// reference it until flushed without a copy.
		if err := co.enqueue(req, payload, false, &pr); err != nil {
			return nil, err
		}
	} else {
		cl.wmu.Lock()
		cl.pmu.Lock()
		cl.waiters = append(cl.waiters, pr)
		cl.pmu.Unlock()
		err := cl.w.WriteJSON(req, v)
		cl.wmu.Unlock()
		if err != nil {
			return nil, cl.fail(err)
		}
	}
	select {
	case resp := <-ch:
		switch resp.frameType {
		case wantReply:
			return resp.payload, nil
		case FrameError:
			var er ErrorReply
			if err := unmarshalStrict(resp.payload, &er); err != nil {
				return nil, err
			}
			return nil, &er
		default:
			return nil, cl.fail(fmt.Errorf("wire: got %s reply, want %s", resp.frameType, wantReply))
		}
	case <-cl.done:
		return nil, cl.closedErr()
	}
}

func (cl *Client) closedErr() error {
	if err := cl.Err(); err != nil {
		return fmt.Errorf("wire: connection closed: %w", err)
	}
	return fmt.Errorf("wire: connection closed")
}

// AttachOptions tunes one remote session.
type AttachOptions struct {
	// Gestures names the plans to deploy; empty deploys every registered
	// plan.
	Gestures []string
	// BatchSize is the client-side tuple batching threshold (default
	// DefaultBatchSize, 1 disables batching).
	BatchSize int
	// OnDetection, when non-nil, runs on the client's read goroutine for
	// every pushed detection — keep it fast. Detections are additionally
	// collected for Detections/TakeDetections unless Discard is set.
	OnDetection func(anduin.Detection)
	// OnDetections, when non-nil, runs on the client's read goroutine for
	// every detection push frame with the frame's detections and the
	// session's server-reported cumulative tuple-drop count. The cluster
	// gateway uses it to re-frame whole pushes toward front clients without
	// touching individual detections.
	OnDetections func(dropped uint64, dets []anduin.Detection)
	// Discard skips the client-side detection buffer (use with
	// OnDetection for long-lived sessions).
	Discard bool
	// TraceEvery samples one outgoing batch in N for end-to-end tracing:
	// the sampled batch carries the client-send timestamp on the wire so
	// the gateway and backend record their stage latencies. 0 disables
	// tracing; unsampled batches are byte-identical to untraced traffic.
	TraceEvery int
	// StartAt, when non-zero, attaches the session in migration catch-up
	// mode: the server expects exactly StartAt replayed tuples (the source's
	// cut ordinal) before MigrateCommit, and mutes detections until the
	// commit so replayed state does not re-fire detections the source
	// already delivered.
	StartAt uint64
}

// Attach opens a remote session under the given ID.
func (cl *Client) Attach(id string, opts AttachOptions) (*RemoteSession, error) {
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.BatchSize > MaxBatch {
		opts.BatchSize = MaxBatch
	}
	var reply AttachReply
	err := cl.roundTrip(FrameAttach, &AttachRequest{
		Version:  ProtocolVersion,
		ID:       id,
		Gestures: opts.Gestures,
		StartAt:  opts.StartAt,
	}, FrameAttachOK, &reply)
	if err != nil {
		return nil, err
	}
	rs := &RemoteSession{
		cl:        cl,
		handle:    reply.Handle,
		id:        id,
		fields:    reply.Fields,
		reads:     sendable(reply.Reads, reply.Fields),
		plans:     reply.Plans,
		batchSize: opts.BatchSize,
		onDet:     opts.OnDetection,
		onDets:    opts.OnDetections,
		discard:   opts.Discard,
		tracer:    obs.NewSampler(opts.TraceEvery),
	}
	cl.mu.Lock()
	cl.sessions[reply.Handle] = rs
	cl.mu.Unlock()
	return rs, nil
}

// sendable returns the fields a session narrows its batches to, given the
// read set and schema width of its attach reply: reads when it is non-empty
// and every index lies inside the schema, nil (every field) otherwise. A
// server that predates read sets sends none, and full width is what every
// server accepts.
func sendable(reads []int, fields int) []int {
	if len(reads) == 0 {
		return nil
	}
	for _, j := range reads {
		if j < 0 || j >= fields {
			return nil
		}
	}
	return reads
}

// Metrics fetches the server's fleet-wide metrics snapshot.
func (cl *Client) Metrics() (serve.Metrics, error) {
	var m serve.Metrics
	err := cl.roundTrip(FrameMetricsReq, struct{}{}, FrameMetricsOK, &m)
	return m, err
}

// Ping probes the server's liveness and returns its identity and session
// count. The sequence number is echoed back in the reply.
func (cl *Client) Ping(seq uint64) (Pong, error) {
	var pong Pong
	err := cl.roundTrip(FramePing, &Ping{Seq: seq}, FramePong, &pong)
	if err == nil && pong.Seq != seq {
		return pong, cl.fail(fmt.Errorf("wire: pong seq %d for ping %d", pong.Seq, seq))
	}
	return pong, err
}

// ProxyBatch forwards an already-encoded FrameBatch payload to the server
// after re-addressing it to the given session handle — the cluster
// gateway's zero-copy data path: the payload bytes a front connection read
// are patched in place and written out, never decoded into tuples. It
// returns the number of tuples the batch carries. The payload must be a
// structurally valid batch (the front decoded its geometry to route it).
func (cl *Client) ProxyBatch(handle uint32, payload []byte) (int, error) {
	return cl.proxyBatch(handle, payload, false)
}

// ProxyBatchOwned is ProxyBatch for a payload living in a pooled frame
// buffer (Reader.Detach): on success the connection takes ownership and
// returns the buffer to the frame pool once it has been written out —
// through the coalescing flusher when enabled, so the bytes a front
// connection read reach the backend socket with no intermediate copy. On
// error, ownership stays with the caller (who may retry it on another
// backend or release it).
func (cl *Client) ProxyBatchOwned(handle uint32, payload []byte) (int, error) {
	return cl.proxyBatch(handle, payload, true)
}

func (cl *Client) proxyBatch(handle uint32, payload []byte, owned bool) (int, error) {
	if len(payload) < 8 {
		return 0, fmt.Errorf("wire: batch payload of %d bytes is shorter than its header", len(payload))
	}
	if cl.closed.Load() {
		return 0, cl.closedErr()
	}
	binary.BigEndian.PutUint32(payload[:4], handle)
	count := int(binary.BigEndian.Uint16(payload[4:6]))
	if co := cl.co.Load(); co != nil {
		if err := co.enqueue(FrameBatch, payload, owned, nil); err != nil {
			return 0, err
		}
		return count, nil
	}
	cl.wmu.Lock()
	err := cl.w.WriteFrame(FrameBatch, payload)
	cl.wmu.Unlock()
	if err != nil {
		return 0, cl.fail(err)
	}
	if owned {
		PutFrameBuf(payload)
	}
	return count, nil
}

// RemoteSession is the client-side handle of one served session: tuples go
// out in batches, detections and drop counts come back asynchronously.
// FeedTuple/FlushBatch must be called from one goroutine at a time per
// session; distinct sessions of one client may feed concurrently.
type RemoteSession struct {
	cl        *Client
	handle    uint32
	id        string
	fields    int
	reads     []int // the fields each tuple carries, in order; nil: every field
	plans     []string
	batchSize int
	onDet     func(anduin.Detection)
	onDets    func(dropped uint64, dets []anduin.Detection)
	discard   bool
	tracer    *obs.Sampler

	// frame is the pending batch payload: a header whose count and fields
	// word sealBatch writes at FlushBatch, then the bodies of the pending
	// tuples, each encoded when it was fed.
	frame   []byte
	pending int

	dmu     sync.Mutex
	dets    []anduin.Detection
	dropped atomic.Uint64 // server-reported cumulative tuple drops
}

// ID returns the session identifier.
func (rs *RemoteSession) ID() string { return rs.id }

// Handle returns the connection-local session handle the server assigned —
// what ProxyBatch needs to re-address forwarded batch payloads.
func (rs *RemoteSession) Handle() uint32 { return rs.handle }

// Plans returns the plan names the session deployed.
func (rs *RemoteSession) Plans() []string { return append([]string(nil), rs.plans...) }

// Fields returns the server's raw tuple schema width.
func (rs *RemoteSession) Fields() int { return rs.fields }

// Reads returns the raw fields the session's tuples carry on the wire, as
// the server advertised them at attach (AttachReply.Reads), or nil when
// they carry every field. The slice is the session's own: do not modify it.
func (rs *RemoteSession) Reads() []int { return rs.reads }

// deliver runs on the client read goroutine for every detection push.
func (rs *RemoteSession) deliver(dropped uint64, dets []anduin.Detection) {
	rs.dropped.Store(dropped)
	if !rs.discard {
		rs.dmu.Lock()
		rs.dets = append(rs.dets, dets...)
		rs.dmu.Unlock()
	}
	if rs.onDet != nil {
		for _, d := range dets {
			rs.onDet(d)
		}
	}
	if rs.onDets != nil {
		rs.onDets(dropped, dets)
	}
}

// FeedTuple encodes one raw tuple into the pending batch — only the fields
// the server reads (Reads) — flushing a full batch to the socket. The tuple
// is read during the call only; the caller may reuse its field slice.
func (rs *RemoteSession) FeedTuple(t stream.Tuple) error {
	if len(t.Fields) != rs.fields {
		return fmt.Errorf("wire: tuple has %d fields, session schema expects %d", len(t.Fields), rs.fields)
	}
	if rs.pending == 0 {
		rs.frame = AppendBatchHeader(rs.frame[:0], rs.handle, 0, 0)
	}
	rs.frame = appendTupleBody(rs.frame, &t, rs.reads)
	if rs.pending++; rs.pending >= rs.batchSize {
		return rs.FlushBatch()
	}
	return nil
}

// FlushBatch sends any buffered tuples immediately.
func (rs *RemoteSession) FlushBatch() error {
	if rs.pending == 0 {
		return nil
	}
	if rs.cl.closed.Load() {
		return rs.cl.closedErr()
	}
	var sentNs int64
	if rs.tracer.Sample() {
		sentNs = time.Now().UnixNano()
	}
	buf := sealBatch(rs.frame, 0, rs.pending, rs.fields, rs.reads, sentNs)
	rs.frame, rs.pending = buf[:0], 0
	if co := rs.cl.co.Load(); co != nil {
		// The pending frame is reused by the next FeedTuple, so hand the
		// coalescer its own pooled copy.
		p := GetFrameBuf(len(buf))
		copy(p, buf)
		if err := co.enqueue(FrameBatch, p, true, nil); err != nil {
			PutFrameBuf(p)
			return err
		}
		return nil
	}
	rs.cl.wmu.Lock()
	err := rs.cl.w.WriteFrame(FrameBatch, buf)
	rs.cl.wmu.Unlock()
	if err != nil {
		// fail keeps the first error: if the socket died under the read
		// loop an instant ago, the caller sees that root cause instead of
		// this write's "use of closed network connection".
		return rs.cl.fail(err)
	}
	return nil
}

// Flush pushes buffered tuples, waits until the server has drained the
// session's queue, and returns the server-side counters. All detections for
// tuples fed before the call are delivered before Flush returns.
func (rs *RemoteSession) Flush() (SessionCounters, error) {
	var counters SessionCounters
	if err := rs.FlushBatch(); err != nil {
		return counters, err
	}
	start := time.Now()
	err := rs.cl.roundTrip(FrameFlush, &SessionRef{Handle: rs.handle}, FrameFlushOK, &counters)
	if err == nil {
		rs.cl.FlushRTT.ObserveSince(start)
		rs.dropped.Store(counters.Dropped)
	}
	return counters, err
}

// Detach flushes, closes the remote session and returns the final counters.
func (rs *RemoteSession) Detach() (SessionCounters, error) {
	var counters SessionCounters
	if err := rs.FlushBatch(); err != nil {
		return counters, err
	}
	start := time.Now()
	err := rs.cl.roundTrip(FrameDetach, &SessionRef{Handle: rs.handle}, FrameDetachOK, &counters)
	rs.cl.mu.Lock()
	delete(rs.cl.sessions, rs.handle)
	rs.cl.mu.Unlock()
	if err == nil {
		rs.cl.FlushRTT.ObserveSince(start)
		rs.dropped.Store(counters.Dropped)
	}
	return counters, err
}

// Detections returns a copy of the detections received so far.
func (rs *RemoteSession) Detections() []anduin.Detection {
	rs.dmu.Lock()
	defer rs.dmu.Unlock()
	return append([]anduin.Detection(nil), rs.dets...)
}

// TakeDetections drains and returns the received detections.
func (rs *RemoteSession) TakeDetections() []anduin.Detection {
	rs.dmu.Lock()
	defer rs.dmu.Unlock()
	out := rs.dets
	rs.dets = nil
	return out
}

// Dropped returns the last server-reported cumulative tuple-drop count for
// this session (non-zero only under the DropOldest policy).
func (rs *RemoteSession) Dropped() uint64 { return rs.dropped.Load() }

// MigrateBegin seals the remote session for migration: the server stops
// admitting tuples, drains its queue, verifies the recorded history is
// complete, and returns the cut ordinal — the exact number of tuples the
// session has admitted, and therefore the number the target must replay
// before MigrateCommit. On error the session is left unsealed and serving.
func (rs *RemoteSession) MigrateBegin() (MigrateBeginReply, error) {
	var reply MigrateBeginReply
	err := rs.cl.roundTrip(FrameMigrateBegin, &MigrateBeginRequest{Handle: rs.handle}, FrameMigrateBeginOK, &reply)
	return reply, err
}

// MigrateFetch returns the next chunk of the sealed session's recorded
// history starting at the given tuple ordinal, as a raw batch payload
// (handle 0) ready for ProxyBatch toward the migration target. An empty
// payload means the history is exhausted. after may rewind — e.g. to
// restart the transfer from 0 toward a fresh target — at the cost of the
// server reopening its history reader.
func (rs *RemoteSession) MigrateFetch(after uint64) ([]byte, error) {
	return rs.cl.roundTripRaw(FrameMigrateState, &MigrateStateRequest{Handle: rs.handle, After: after}, FrameMigrateStateOK, nil)
}

// MigrateCommit completes a catch-up attach on the migration target: the
// server drains the replayed tuples, verifies exactly ordinal tuples
// arrived, and unmutes detections. From this moment the session serves
// live traffic with state byte-identical to the source at its cut.
func (rs *RemoteSession) MigrateCommit(ordinal uint64) (SessionCounters, error) {
	var counters SessionCounters
	err := rs.cl.roundTrip(FrameMigrateCommit,
		&MigrateCommitRequest{Handle: rs.handle, Ordinal: ordinal}, FrameMigrateCommitOK, &counters)
	return counters, err
}

// Backfill asks the server to evaluate plans over recorded streams it
// archives. onDets, when non-nil, runs on the client's read goroutine for
// every detection push with the index into req.Streams the detections
// belong to; pushes arrive in stream order, each stream's detections in
// evaluation order, all before Backfill returns. The reply lists streams
// the server does not archive in Missing — those produced no detections
// and should be retried against the backend that has them. A stream's
// pushes arrive together, once the server has finished the stream; on an
// error, whatever was pushed for earlier streams stands and the caller
// discards it or not. Closing the client ends the server's evaluation
// within a record of its next write. Note the request holds the server
// connection's reader goroutine for its whole run; use a dedicated
// connection when live traffic shares the client.
func (cl *Client) Backfill(req BackfillRequest, onDets func(streamIdx int, dets []anduin.Detection)) (BackfillReply, error) {
	var reply BackfillReply
	var cb func(uint32, []anduin.Detection)
	if onDets != nil {
		cb = func(idx uint32, dets []anduin.Detection) { onDets(int(idx), dets) }
	} else {
		cb = func(uint32, []anduin.Detection) {}
	}
	err := cl.roundTripWith(FrameBackfill, &req, FrameBackfillOK, &reply, cb)
	return reply, err
}

// MigrateAbort cancels a migration on the source: the history reader is
// released and the session unsealed, resuming live service with zero loss.
func (rs *RemoteSession) MigrateAbort() (SessionCounters, error) {
	var counters SessionCounters
	err := rs.cl.roundTrip(FrameMigrateCommit,
		&MigrateCommitRequest{Handle: rs.handle, Abort: true}, FrameMigrateCommitOK, &counters)
	return counters, err
}
