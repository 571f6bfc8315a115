package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// maxPendingDetections bounds a session's detection push buffer. The buffer
// absorbs bursts while the client socket is busy; past the cap the oldest
// pending detection is evicted and counted, mirroring DropOldest semantics
// (a detection source runs on a shard worker or a backend connection's read
// goroutine and must never block on a slow client socket).
const maxPendingDetections = 65536

// Host is what a Server serves. The server owns everything that is protocol
// — connections, the frame loop, session handles, the write lock, the
// detection push buffer and the framing of every reply — and reaches the
// thing being served through this interface alone. There are two hosts: a
// local serve.Manager (NewServer) and the cluster gateway's backend fleet.
type Host interface {
	// Attach opens the session req names (the server has already checked the
	// protocol version). Detections the session fires go into push, from any
	// goroutine. The reply is the attach acknowledgement minus the handle,
	// which the server assigns: the raw tuple schema width, the deployed
	// plan names and the read set the client may narrow its batches to
	// (nil: full width). The session must decode a narrowed batch against
	// exactly that set for as long as it lives. An error refuses this
	// session only; the connection and its other sessions survive.
	Attach(req AttachRequest, push *Push) (sess Session, reply AttachReply, err error)
	// SessionCount is the live-session figure a Pong reports.
	SessionCount() int
	// Metrics answers a metrics request.
	Metrics() serve.Metrics
}

// Session is one attached session as its host sees it. Batch, Sync and Close
// all run on the connection's reader goroutine, one at a time.
type Session interface {
	// Batch ingests one tuple batch. Blocking here is the backpressure path:
	// the reader goroutine stalls, the kernel socket buffer fills, TCP flow
	// control paces the remote client. An error closes the connection (the
	// client has no request in flight to answer).
	Batch(b RawBatch) error
	// Sync is the flush barrier: it returns once every tuple batched before
	// it is fully processed and every detection those tuples fired is in the
	// session's Push, with the tuple counters as of that moment (the server
	// fills in the handle and the detection counts). With detach, it also
	// ends the session. An error is reported to the client as
	// session-scoped and leaves the session attached.
	Sync(detach bool) (SessionCounters, error)
	// Close ends a session whose connection went away without a detach.
	Close()
}

// RawBatch is one FrameBatch payload as the connection's reader filled it,
// its geometry (BatchGeometry) already validated: Fields is the count each
// tuple carries, which for a narrowed batch (BatchNarrowed) the session
// checks against its advertised read set. Payload is the reader's pooled
// buffer, valid until Batch returns — unless the session takes it with Own.
type RawBatch struct {
	Payload       []byte
	Count, Fields int
	r             *Reader
}

// Own transfers the pooled buffer behind Payload from the connection's
// reader to the caller, who must release it with PutFrameBuf or hand it to
// an owning write (Client.ProxyBatchOwned) on every path. This is what lets
// the gateway forward the bytes it read with no copy.
func (b RawBatch) Own() []byte {
	b.r.Detach()
	return b.Payload
}

// Push is one session's detection push buffer: the host appends (never
// blocking), the connection's pusher goroutine and its flush/detach acks
// drain it to the socket.
type Push struct {
	mu         sync.Mutex
	pending    []anduin.Detection
	tupleDrops uint64 // latest cumulative tuple-drop count the host reported

	sent    atomic.Uint64
	evicted atomic.Uint64
	notify  chan struct{}
}

// Detections parks dets for delivery, along with the session's cumulative
// tuple-drop count at this moment (it rides to the client on every
// detection frame).
func (p *Push) Detections(tupleDrops uint64, dets []anduin.Detection) {
	p.mu.Lock()
	p.tupleDrops = tupleDrops
	for len(p.pending)+len(dets) > maxPendingDetections && len(p.pending) > 0 {
		p.pending = p.pending[1:]
		p.evicted.Add(1)
	}
	p.pending = append(p.pending, dets...)
	p.mu.Unlock()
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// Server accepts wire-protocol connections and multiplexes their sessions
// onto a Host. The host's backpressure decides the socket behaviour: a
// serve.Manager under Block parks the connection's reader goroutine on the
// full shard queue (TCP flow control pushes back to the remote producer),
// DropOldest keeps the reader draining and surfaces drop counts to the
// client.
type Server struct {
	host Host

	// Name identifies this server in Pong replies (a cluster gateway shows
	// it in per-backend metrics). Set it before Serve; empty is fine.
	Name string

	// BatchDecode, when non-nil, records the FrameBatch decode time of
	// trace-sampled batches; Ingress records client-send → decoded for the
	// same batches (cross-clock when client and server are on different
	// hosts). Both are nil-safe; set before Serve. Unsampled batches never
	// touch them.
	BatchDecode *obs.Histogram
	Ingress     *obs.Histogram

	// TapSessions, when non-nil, is consulted on every attach: it returns
	// the tuple tap to install on the new session (see
	// serve.SessionOptions.Tap) plus a release function called exactly
	// once when the session ends — aborted=true means the session was
	// never created (the attach failed after the tap was made), so the
	// hook can discard a recording no tuple ever reached; aborted=false
	// means a normal detach or connection teardown. An error fails the
	// attach. (*store.Archive).Serve installs it, with MigrateSource and
	// BackfillSource, to record remote sessions into a stream-store archive
	// without the wire layer knowing about disks. Set it before Serve; it
	// must be safe for concurrent use.
	TapSessions func(sessionID string) (tap func(stream.Tuple), release func(aborted bool), err error)

	// BackfillSource, when non-nil, serves FrameBackfill requests: it must
	// evaluate the named plans over the named recorded stream within the
	// given event-time window, calling emit (possibly repeatedly, in order)
	// with the detections as they fire, and return the records and tuples
	// evaluated; once ctx is done the request is over and it should return
	// at the next record. A stream the server does not archive is reported
	// by returning (or wrapping) ErrUnknownStream — the request then lists
	// it as missing instead of failing, which is how a fleet coordinator
	// discovers it must retry the stream elsewhere. The standard
	// implementation is the one (*store.Archive).Serve installs over the
	// server's archive. One request calls it for up to GOMAXPROCS of its
	// streams at a time, each on a goroutine of its own; set before Serve,
	// safe for concurrent use.
	BackfillSource BackfillFunc

	// MigrateSource, when non-nil, makes this server's sessions migratable:
	// on FrameMigrateBegin it must return a reader over the session's
	// recorded history plus the recorded-tuple count, with everything tapped
	// so far flushed to readable state (the session is sealed and drained
	// before the call, so the tap is quiescent). The standard implementation,
	// installed by (*store.Archive).Serve, syncs the session's
	// store.Recorder and opens a store.Reader on its stream. A recorded
	// count short of the session's admitted count fails the migration
	// cleanly — a lossy recording cannot rebuild engine state. Set before
	// Serve; safe for concurrent use.
	MigrateSource func(sessionID string) (hr HistoryReader, recorded uint64, err error)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// NewServer creates a server over an existing session manager. The caller
// keeps ownership of the manager and closes it after the server. The
// TapSessions, MigrateSource and BackfillSource hooks apply to this host
// only.
func NewServer(mgr *serve.Manager) *Server {
	s := NewHostServer(nil)
	s.host = &localHost{srv: s, mgr: mgr}
	return s
}

// NewHostServer creates a server over any host.
func NewHostServer(h Host) *Server {
	return &Server{host: h, conns: make(map[*conn]struct{})}
}

// Serve accepts connections on ln until Close. It always returns a non-nil
// error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		cc := &conn{srv: s, c: c, r: NewReader(c), w: NewWriter(c), sessions: make(map[uint32]*connSession)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		s.conns[cc] = struct{}{}
		// Register with the handler group under the lock: Close marks
		// closed before calling Wait, so an Add here cannot race a Wait
		// that is already draining.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			cc.serve()
			s.mu.Lock()
			delete(s.conns, cc)
			s.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address once Serve is running.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, closes every connection and waits for their
// handlers to finish (each closes the sessions its connection still held).
// The host is left running.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.c.Close()
	}
	s.wg.Wait()
	return err
}

// conn is one client connection: a reader goroutine processing frames
// synchronously (the backpressure path) plus per-session pusher goroutines
// streaming detections back.
type conn struct {
	srv *Server
	c   net.Conn
	r   *Reader

	wmu sync.Mutex
	w   *Writer

	mu         sync.Mutex
	sessions   map[uint32]*connSession
	nextHandle uint32
}

// BackfillFunc evaluates plans over one recorded stream for a backfill
// request — the Server.BackfillSource contract, declared here so the wire
// layer can serve offline evaluation without importing the store. A zero
// since or until leaves that side of the event-time window unbounded.
type BackfillFunc func(ctx context.Context, stream string, gestures []string, since, until time.Time,
	emit func([]anduin.Detection) error) (records, tuples uint64, err error)

// connSession is one attached session: its handle, the host's side of it,
// and its detection push state.
type connSession struct {
	handle uint32
	sess   Session
	push   Push
	done   chan struct{}
	encBuf []byte // frame encode scratch; guarded by conn.wmu
}

// stamp completes a host's tuple counters with what only the server knows:
// the handle and the push buffer's detection counts.
func (cs *connSession) stamp(c *SessionCounters) {
	c.Handle = cs.handle
	c.Detections = cs.push.sent.Load()
	c.DetectionsDropped += cs.push.evicted.Load()
}

// serve runs the connection's frame loop until the peer disconnects or a
// protocol violation occurs, then closes every session still attached.
func (c *conn) serve() {
	defer c.teardown()
	for {
		f, err := c.r.Next()
		if err != nil {
			return
		}
		if err := c.handle(f); err != nil {
			// Protocol violation: report once and drop the connection.
			c.sessionError(0, err)
			return
		}
	}
}

func (c *conn) teardown() {
	c.c.Close()
	c.mu.Lock()
	sessions := make([]*connSession, 0, len(c.sessions))
	for h, cs := range c.sessions {
		sessions = append(sessions, cs)
		delete(c.sessions, h)
	}
	c.mu.Unlock()
	for _, cs := range sessions {
		close(cs.done)
		cs.sess.Close()
	}
}

// handle processes one frame on the reader goroutine. Returning an error
// closes the connection; session-scoped failures are reported with
// FrameError instead and keep the connection alive.
func (c *conn) handle(f Frame) error {
	switch f.Type {
	case FrameAttach:
		return c.handleAttach(f.Payload)
	case FrameBatch:
		return c.handleBatch(f.Payload)
	case FrameFlush:
		return c.handleSync(f.Payload, FrameFlushOK, false)
	case FrameDetach:
		return c.handleSync(f.Payload, FrameDetachOK, true)
	case FrameMigrateBegin:
		return c.handleMigrateBegin(f.Payload)
	case FrameMigrateState:
		return c.handleMigrateState(f.Payload)
	case FrameMigrateCommit:
		return c.handleMigrateCommit(f.Payload)
	case FrameBackfill:
		return c.handleBackfill(f.Payload)
	case FrameMetricsReq:
		return c.reply(FrameMetricsOK, c.srv.host.Metrics())
	case FramePing:
		var ping Ping
		if err := unmarshalStrict(f.Payload, &ping); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		return c.reply(FramePong, &Pong{Seq: ping.Seq, Name: c.srv.Name, Sessions: c.srv.host.SessionCount()})
	default:
		return fmt.Errorf("unexpected %s frame from client", f.Type)
	}
}

func (c *conn) handleAttach(payload []byte) error {
	var req AttachRequest
	if err := unmarshalStrict(payload, &req); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	if req.Version != ProtocolVersion {
		return fmt.Errorf("attach: protocol version %d, server speaks %d", req.Version, ProtocolVersion)
	}
	cs := &connSession{done: make(chan struct{})}
	// One slot: a notification that finds the pusher busy is remembered,
	// and the pusher drains everything pending per wake-up.
	cs.push.notify = make(chan struct{}, 1)
	sess, reply, err := c.srv.host.Attach(req, &cs.push)
	if err != nil {
		return c.sessionError(0, err)
	}
	cs.sess = sess
	c.mu.Lock()
	c.nextHandle++
	cs.handle = c.nextHandle
	c.sessions[cs.handle] = cs
	c.mu.Unlock()
	go c.pushLoop(cs)
	reply.Handle = cs.handle
	return c.reply(FrameAttachOK, &reply)
}

func (c *conn) handleBatch(payload []byte) error {
	handle, count, fields, err := BatchGeometry(payload)
	if err != nil {
		return err
	}
	cs := c.session(handle)
	if cs == nil {
		return fmt.Errorf("batch for unknown session handle %d", handle)
	}
	return cs.sess.Batch(RawBatch{Payload: payload, Count: count, Fields: fields, r: c.r})
}

// handleSync implements flush and detach: once the host reports the session
// drained, push any pending detections and acknowledge with the final
// counters under one hold of the write lock, so the client is guaranteed to
// have every detection for tuples fed before the request once the ack
// arrives.
func (c *conn) handleSync(payload []byte, ack FrameType, detach bool) error {
	var ref SessionRef
	if err := unmarshalStrict(payload, &ref); err != nil {
		return fmt.Errorf("%s: %w", ack, err)
	}
	cs := c.session(ref.Handle)
	if cs == nil {
		// The client has a request in flight, so this is answerable as a
		// session-scoped error (e.g. a double Detach) — the connection and
		// its other sessions survive.
		return c.sessionError(ref.Handle, fmt.Errorf("wire: no session with handle %d", ref.Handle))
	}
	counters, err := cs.sess.Sync(detach)
	if err != nil {
		return c.sessionError(ref.Handle, err)
	}
	if detach {
		c.mu.Lock()
		delete(c.sessions, cs.handle)
		c.mu.Unlock()
		close(cs.done)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.writeDetectionsLocked(cs); err != nil {
		return err
	}
	cs.stamp(&counters)
	return c.w.WriteJSON(ack, &counters)
}

// handleBackfill evaluates plans over recorded streams: per stream,
// detections go out as FrameBackfillDet frames addressed by the stream's
// request index, then one FrameBackfillOK summarizes the run. Unknown streams
// are collected in Missing; any other per-stream failure aborts the request
// with a FrameError (the connection and its sessions survive).
//
// Streams are independent, so up to GOMAXPROCS of them are evaluated at a
// time, each by a worker that encodes its frames into a buffer of its own;
// this goroutine writes the buffers out in request order, and starts stream
// i+GOMAXPROCS only once stream i has been written — what the client reads is
// what one goroutine walking the list would have sent, and at most GOMAXPROCS
// streams' detections are ever held. However the request ends, the workers
// are told (they stop at their next record) and waited for.
func (c *conn) handleBackfill(payload []byte) error {
	var req BackfillRequest
	if err := unmarshalStrict(payload, &req); err != nil {
		return fmt.Errorf("backfill: %w", err)
	}
	if c.srv.BackfillSource == nil {
		return c.sessionError(0, fmt.Errorf("wire: server has no backfill source"))
	}
	ctx, cancel := context.WithCancel(context.Background())
	var workers sync.WaitGroup
	defer func() {
		cancel()
		workers.Wait()
	}()
	results := make([]chan *streamBackfill, len(req.Streams))
	start := func(i int) {
		results[i] = make(chan *streamBackfill, 1)
		workers.Add(1)
		go func() {
			defer workers.Done()
			results[i] <- c.backfillStream(ctx, &req, i)
		}()
	}
	window := runtime.GOMAXPROCS(0)
	for i := 0; i < window && i < len(req.Streams); i++ {
		start(i)
	}
	var reply BackfillReply
	for i, name := range req.Streams {
		res := <-results[i]
		reply.Records += res.records
		reply.Tuples += res.tuples
		switch {
		case errors.Is(res.err, ErrUnknownStream):
			reply.Missing = append(reply.Missing, i)
		case res.err != nil:
			return c.sessionError(0, fmt.Errorf("wire: backfill stream %q: %w", name, res.err))
		default:
			if err := c.writeBackfillFrames(res); err != nil {
				return err
			}
			reply.Detections += res.detections
		}
		if next := i + window; next < len(req.Streams) {
			start(next)
		}
	}
	return c.reply(FrameBackfillOK, &reply)
}

// streamBackfill is one stream's share of a backfill request: its
// FrameBackfillDet payloads and its counters.
type streamBackfill struct {
	frames          [][]byte
	records, tuples uint64
	detections      uint64
	err             error
}

// backfillStream evaluates stream i of req through the server's source,
// keeping what it would send.
func (c *conn) backfillStream(ctx context.Context, req *BackfillRequest, i int) *streamBackfill {
	var since, until time.Time
	if req.SinceNs != 0 {
		since = decodeTime(req.SinceNs)
	}
	if req.UntilNs != 0 {
		until = decodeTime(req.UntilNs)
	}
	res := new(streamBackfill)
	emit := func(dets []anduin.Detection) error {
		for len(dets) > 0 {
			n := min(len(dets), MaxDetections)
			frame, err := AppendDetections(nil, uint32(i), 0, dets[:n])
			if err != nil {
				return err
			}
			res.frames = append(res.frames, frame)
			res.detections += uint64(n)
			dets = dets[n:]
		}
		return nil
	}
	res.records, res.tuples, res.err = c.srv.BackfillSource(ctx, req.Streams[i], req.Gestures, since, until, emit)
	return res
}

// writeBackfillFrames sends one stream's detection frames.
func (c *conn) writeBackfillFrames(res *streamBackfill) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for _, frame := range res.frames {
		if err := c.w.WriteFrame(FrameBackfillDet, frame); err != nil {
			return err
		}
	}
	return nil
}

func (c *conn) session(handle uint32) *connSession {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[handle]
}

// reply writes one JSON control reply.
func (c *conn) reply(t FrameType, v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.WriteJSON(t, v)
}

// sessionError reports a session-scoped failure without closing the
// connection.
func (c *conn) sessionError(handle uint32, err error) error {
	return c.reply(FrameError, &ErrorReply{Handle: handle, Msg: err.Error()})
}

// pushLoop streams pending detections to the client until the session
// detaches or the connection dies.
func (c *conn) pushLoop(cs *connSession) {
	for {
		select {
		case <-cs.push.notify:
			c.wmu.Lock()
			err := c.writeDetectionsLocked(cs)
			c.wmu.Unlock()
			if err != nil {
				c.c.Close() // wake the reader goroutine, which tears down
				return
			}
		case <-cs.done:
			return
		}
	}
}

// writeDetectionsLocked drains the session's pending detections into
// FrameDetections frames. Callers hold c.wmu, which makes take-and-write
// atomic: no acknowledgement can overtake a detection taken before it.
func (c *conn) writeDetectionsLocked(cs *connSession) error {
	p := &cs.push
	for {
		p.mu.Lock()
		pending, dropped := p.pending, p.tupleDrops
		p.pending = nil
		p.mu.Unlock()
		if len(pending) == 0 {
			return nil
		}
		for len(pending) > 0 {
			n := len(pending)
			if n > MaxDetections {
				n = MaxDetections
			}
			buf, err := AppendDetections(cs.encBuf[:0], cs.handle, dropped, pending[:n])
			if err != nil {
				return err
			}
			cs.encBuf = buf[:0]
			if err := c.w.WriteFrame(FrameDetections, buf); err != nil {
				return err
			}
			p.sent.Add(uint64(n))
			pending = pending[n:]
		}
	}
}

// unmarshalStrict decodes a JSON control payload; json.Unmarshal already
// rejects trailing non-whitespace data.
func unmarshalStrict(payload []byte, v any) error {
	return json.Unmarshal(payload, v)
}
