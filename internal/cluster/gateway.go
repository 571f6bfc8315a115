package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// maxPendingDetections bounds a proxied session's detection relay buffer,
// mirroring the wire server's own push buffer: past the cap the oldest
// pending detection is evicted and counted.
const maxPendingDetections = 65536

// Gateway terminates the wire protocol in front of a backend fleet. Remote
// clients speak to it exactly as they would to a single gestured process —
// attach, batch, flush, detach, metrics, ping — while each session's frames
// are proxied to the backend the ring assigns it.
type Gateway struct {
	cfg   Config
	fleet *fleet      // membership, incarnations and the placement ring
	log   *obs.Logger // never nil; see NewGateway

	// memberMu serializes membership operations — AddBackend, Drain,
	// RemoveBackend — against each other, and Close waits on it for the one
	// in flight; the fleet's own lock stays the fine-grained one for each
	// state step inside them. Lock ordering: memberMu before fleet.mu, never
	// the reverse.
	memberMu sync.Mutex

	mu     sync.Mutex
	conns  map[*frontConn]struct{}
	ln     net.Listener
	closed bool

	// Migration counters (see MigrationStats): completed and failed session
	// moves, tuples replayed into targets, and per-migration duration.
	migrations       atomic.Uint64
	migrationsFailed atomic.Uint64
	migratedTuples   atomic.Uint64
	migrateDur       *obs.Histogram

	// Fleet-backfill counters (see BackfillStats) plus the merge lock the
	// per-backend calls of one run share.
	backfillMu      sync.Mutex
	backfills       atomic.Uint64
	backfillsFailed atomic.Uint64
	backfillStreams atomic.Uint64
	backfillDur     *obs.Histogram

	wg        sync.WaitGroup // front connection handlers
	quit      chan struct{}
	probeDone chan struct{}
	probeWG   sync.WaitGroup // in-flight probes and their ping goroutines
}

// NewGateway installs every configured backend (verified data + probe
// connections) and builds the ring. By default it fails fast if any backend
// is unreachable: a fleet that starts degraded is a configuration error,
// whereas a backend lost later is a runtime event the gateway survives by
// ejection. With Config.TolerateDown, an unreachable backend is instead
// admitted through the recovery machinery — the gateway starts on the
// reachable subset and the rest join the ring when they answer pings.
func NewGateway(cfg Config) (*Gateway, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	log := cfg.Logger
	if log == nil {
		log = obs.NewLogger(256, nil)
	}
	quit := make(chan struct{})
	gw := &Gateway{
		cfg:         cfg,
		fleet:       newFleet(cfg, log, quit),
		log:         log,
		conns:       make(map[*frontConn]struct{}),
		quit:        quit,
		probeDone:   make(chan struct{}),
		migrateDur:  obs.NewHistogram(),
		backfillDur: obs.NewHistogram(),
	}
	for _, b := range cfg.Backends {
		_, err := gw.fleet.install(b.ID, b.Addr, nil)
		if err == nil {
			continue
		}
		if !cfg.TolerateDown {
			gw.fleet.closeAll()
			return nil, err
		}
		gw.log.Warn("backend down at startup; admitting through recovery",
			obs.F("backend", b.ID), obs.F("addr", b.Addr), obs.F("state", string(StateRecovering)))
		gw.fleet.recoverLater(b.ID, b.Addr)
	}
	go gw.probeLoop()
	return gw, nil
}

// Log returns the gateway's structured lifecycle event log (never nil); the
// admin plane serves its recent ring at /events.
func (gw *Gateway) Log() *obs.Logger { return gw.log }

// State reports a backend's lifecycle state ("" for an unknown ID).
func (gw *Gateway) State(id string) BackendState {
	m, _ := gw.fleet.lookup(id)
	return m.state
}

// Ring exposes the placement ring (read-mostly: lookups and load).
func (gw *Gateway) Ring() *Ring { return gw.fleet.ring }

// Serve accepts front connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (gw *Gateway) Serve(ln net.Listener) error {
	gw.mu.Lock()
	if gw.closed {
		gw.mu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	gw.ln = ln
	gw.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		fc := &frontConn{gw: gw, c: c, r: wire.NewReader(c), w: wire.NewWriter(c), sessions: make(map[uint32]*proxySession)}
		gw.mu.Lock()
		if gw.closed {
			gw.mu.Unlock()
			c.Close()
			return net.ErrClosed
		}
		gw.conns[fc] = struct{}{}
		gw.wg.Add(1)
		gw.mu.Unlock()
		go func() {
			defer gw.wg.Done()
			fc.serve()
			gw.mu.Lock()
			delete(gw.conns, fc)
			gw.mu.Unlock()
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (gw *Gateway) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return gw.Serve(ln)
}

// Addr returns the front listener address once Serve is running.
func (gw *Gateway) Addr() net.Addr {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if gw.ln == nil {
		return nil
	}
	return gw.ln.Addr()
}

// Close stops the prober (waiting out any in-flight pings), the recovery
// loops, the listener and every front connection (whose teardown detaches
// their backend sessions), then drops the backend connections.
func (gw *Gateway) Close() error {
	gw.mu.Lock()
	if gw.closed {
		gw.mu.Unlock()
		return nil
	}
	gw.closed = true
	ln := gw.ln
	conns := make([]*frontConn, 0, len(gw.conns))
	for fc := range gw.conns {
		conns = append(conns, fc)
	}
	gw.mu.Unlock()
	close(gw.quit)
	<-gw.probeDone
	gw.probeWG.Wait()
	gw.fleet.shutdown()
	// Close is the last membership verb. A drain polls gw.quit between
	// sessions and between replay chunks, so an in-flight migration aborts
	// (unsealing its source) and Drain returns, releasing memberMu, before
	// the backend connections it is speaking over are torn down; verbs
	// arriving later find the fleet shut.
	gw.memberMu.Lock()
	defer gw.memberMu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, fc := range conns {
		fc.c.Close()
	}
	gw.wg.Wait()
	gw.fleet.closeAll()
	return err
}

// probeLoop health-checks the live fleet on the configured interval, each
// backend over its dedicated probe connection. The sweep is concurrent: one
// probe per backend, launched together, so a single timing-out backend
// cannot delay any other backend's health check (the sequential sweep it
// replaces stalled the whole fleet for up to ProbeTimeout per sick
// backend). A backend whose previous probe is still in flight is skipped —
// at most one outstanding probe per incarnation. A failed or timed-out
// probe ejects the backend, which re-homes its sessions.
func (gw *Gateway) probeLoop() {
	defer close(gw.probeDone)
	if gw.cfg.ProbeInterval < 0 {
		<-gw.quit
		return
	}
	ticker := time.NewTicker(gw.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-gw.quit:
			return
		case <-ticker.C:
		}
		for _, m := range gw.fleet.snapshot() {
			be := m.be
			if be == nil || be.isEjected() || !be.probing.CompareAndSwap(false, true) {
				continue
			}
			gw.probeWG.Add(1)
			go func(be *backend) {
				defer gw.probeWG.Done()
				defer be.probing.Store(false)
				if err := gw.probe(be); err != nil {
					select {
					case <-gw.quit: // shutting down; not a health verdict
					default:
						gw.log.Error("backend probe failed; ejecting",
							obs.F("backend", be.id), obs.F("addr", be.addr),
							obs.F("incarnation", be.inc), obs.F("state", string(StateEjected)),
							obs.F("err", err.Error()))
						gw.eject(be, nil)
					}
				}
			}(be)
		}
	}
}

// probe pings one backend, bounding the round trip by ProbeTimeout. The
// in-flight ping's lifetime is tied to the probe's: on timeout or gateway
// shutdown the probe client is closed, which unblocks the ping goroutine
// immediately and the probe waits for it to exit — repeated timeouts
// against a black-holed backend can never accumulate parked goroutines
// (closing the client is fine: a timed-out probe ejects the incarnation,
// and a shutdown closes every backend connection anyway).
func (gw *Gateway) probe(be *backend) error {
	done := make(chan error, 1)
	seq := be.stats.probeSeq.Add(1)
	start := time.Now()
	gw.probeWG.Add(1)
	go func() {
		defer gw.probeWG.Done()
		_, err := be.pr.Ping(seq)
		done <- err
	}()
	timer := time.NewTimer(gw.cfg.ProbeTimeout)
	defer timer.Stop()
	select {
	case err := <-done:
		if err == nil {
			be.stats.probes.Add(1)
			be.stats.probeRTT.ObserveSince(start)
		}
		return err
	case <-timer.C:
		be.pr.Close()
		<-done
		return fmt.Errorf("cluster: backend %s: probe timeout after %v", be.id, gw.cfg.ProbeTimeout)
	case <-gw.quit:
		be.pr.Close()
		<-done
		return fmt.Errorf("cluster: backend %s: probe aborted by shutdown", be.id)
	}
}

// eject retires a failed backend incarnation (fleet.retire: off the ring,
// connections closed, member moved to recovering or ejected) and gives every
// session it carried a new owner. Idempotent: retire admits exactly one
// caller per incarnation; every later call returns immediately. The except
// parameter, when non-nil, names a session the caller moves itself, because
// the caller already holds that session's lock and locking it here would
// deadlock.
//
// Lock ordering: ps.mu is always acquired before be.mu (bind holds a
// session's lock while registering it on a backend), so a goroutine holding
// be.mu must never block on ps.mu. retire complies by snapshotting the
// session set under be.mu and releasing it; only then are the sessions
// locked here, one at a time.
func (gw *Gateway) eject(be *backend, except *proxySession) {
	sessions, state, ok := gw.fleet.retire(be, false)
	if !ok {
		return
	}
	be.stats.ejections.Add(1)
	gw.log.Warn("backend ejected; re-homing its sessions",
		obs.F("backend", be.id), obs.F("addr", be.addr), obs.F("incarnation", be.inc),
		obs.F("state", string(state)), obs.F("sessions", len(sessions)))
	for _, ps := range sessions {
		if ps == except {
			continue
		}
		ps.mu.Lock()
		gw.ensureOwnerLocked(ps)
		ps.mu.Unlock()
	}
}

// Metrics aggregates the fleet: every live backend's serve.Metrics summed,
// plus the per-backend proxy counters (including ejected backends, marked
// unhealthy).
func (gw *Gateway) Metrics() serve.Metrics {
	var out serve.Metrics
	for _, m := range gw.fleet.snapshot() {
		be, stats := m.be, m.stats
		healthy := m.state == StateLive && be != nil && !be.isEjected()
		if healthy {
			if bm, err := gw.fetchMetrics(be); err == nil {
				out.Sessions += bm.Sessions
				out.Enqueued += bm.Enqueued
				out.Processed += bm.Processed
				out.Dropped += bm.Dropped
				out.Detections += bm.Detections
				out.QueueDepth += bm.QueueDepth
				out.Shards = append(out.Shards, bm.Shards...)
			} else {
				healthy = false
			}
		}
		proxied := 0
		if be != nil {
			proxied = be.sessionCount()
		}
		out.Backends = append(out.Backends, serve.BackendMetrics{
			ID:           m.id,
			Addr:         m.addr,
			Healthy:      healthy,
			State:        string(m.state),
			Sessions:     proxied,
			Batches:      stats.batches.Load(),
			Tuples:       stats.tuples.Load(),
			Detections:   stats.detections.Load(),
			Lost:         stats.lost.Load(),
			Rehomed:      stats.rehomed.Load(),
			Ejections:    stats.ejections.Load(),
			Readmissions: stats.readmissions.Load(),
		})
	}
	return out
}

// fetchMetrics snapshots one backend's metrics with the probe timeout, so
// a wedged backend renders as an unhealthy row instead of hanging the
// front connection that asked (Metrics runs on its reader goroutine). On
// timeout the fetch goroutine stays parked until the backend answers or is
// ejected — bounded by one per metrics request.
func (gw *Gateway) fetchMetrics(be *backend) (serve.Metrics, error) {
	type result struct {
		m   serve.Metrics
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := be.cl.Metrics()
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		return r.m, r.err
	case <-time.After(gw.cfg.ProbeTimeout):
		return serve.Metrics{}, fmt.Errorf("cluster: backend %s: metrics timeout after %v", be.id, gw.cfg.ProbeTimeout)
	}
}

// sessionTotal counts proxied sessions across all front connections.
func (gw *Gateway) sessionTotal() int {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	n := 0
	for fc := range gw.conns {
		fc.mu.Lock()
		n += len(fc.sessions)
		fc.mu.Unlock()
	}
	return n
}

// frontConn is one client connection to the gateway: a reader goroutine
// proxying frames synchronously (so backend-side backpressure propagates to
// the front socket) plus per-session relay goroutines pushing detections
// back.
type frontConn struct {
	gw *Gateway
	c  net.Conn
	r  *wire.Reader

	wmu sync.Mutex
	w   *wire.Writer

	mu         sync.Mutex
	sessions   map[uint32]*proxySession
	nextHandle uint32
}

// proxySession is one front session and its ownership record: which backend
// incarnation currently holds its serving state.
type proxySession struct {
	fc       *frontConn
	front    uint32
	id       string
	gestures []string
	fields   int

	// mu serializes the data/control path against owner changes: forwards,
	// flush and detach round trips, failover and migration all hold it.
	mu       sync.Mutex
	in       uint64 // tuples forwarded, all incarnations
	detached bool

	// The ownership record. be/rs/cur change only in bind; forwarded is what
	// would die with be (handleBatch counts it up, chargeLostLocked writes
	// it off); err is set only by ensureOwnerLocked, when the owner is dead
	// and no other can be found, and is sticky: every later frame reports it.
	be        *backend
	rs        *wire.RemoteSession
	forwarded uint64
	err       error
	// cur shadows be for readers that do not hold mu: the relay goroutine
	// attributing detection counts, and push hooks telling the current
	// owner's pushes from a previous owner's stragglers.
	cur atomic.Pointer[backend]

	lost           atomic.Uint64 // tuples charged to dead incarnations
	backendDropped atomic.Uint64 // current incarnation's reported drops

	pmu        sync.Mutex
	pending    []anduin.Detection
	detSent    atomic.Uint64
	detDropped atomic.Uint64
	notify     chan struct{}
	done       chan struct{}
	encBuf     []byte // detection encode scratch; guarded by fc.wmu
}

// dropTotal is the cumulative tuple-drop count the front client sees:
// failover losses plus the live incarnation's DropOldest evictions.
func (ps *proxySession) dropTotal() uint64 {
	return ps.lost.Load() + ps.backendDropped.Load()
}

// pushHook builds the OnDetections callback for the session's attachment to
// one backend incarnation.
func (ps *proxySession) pushHook(from *backend) func(uint64, []anduin.Detection) {
	return func(dropped uint64, dets []anduin.Detection) { ps.relayPush(from, dropped, dets) }
}

// relayPush runs on a backend client's read goroutine for every detection
// push frame of this session; it parks the detections for the relay
// goroutine, which owns the front socket writes. The detections are always
// relayed (they happened), but the drop counter is only taken from the
// current owner: a dead backend's read goroutine may still be mid-push after
// the owner flipped, and its cumulative count is already folded into lost.
func (ps *proxySession) relayPush(from *backend, dropped uint64, dets []anduin.Detection) {
	if ps.cur.Load() == from {
		ps.backendDropped.Store(dropped)
	}
	ps.pmu.Lock()
	for len(ps.pending)+len(dets) > maxPendingDetections && len(ps.pending) > 0 {
		ps.pending = ps.pending[1:]
		ps.detDropped.Add(1)
	}
	ps.pending = append(ps.pending, dets...)
	ps.pmu.Unlock()
	select {
	case ps.notify <- struct{}{}:
	default:
	}
}

// serve runs the front connection's frame loop until the peer disconnects
// or a protocol violation occurs, then tears down every proxied session.
func (fc *frontConn) serve() {
	defer fc.teardown()
	for {
		f, err := fc.r.Next()
		if err != nil {
			return
		}
		if err := fc.handle(f); err != nil {
			fc.wmu.Lock()
			fc.w.WriteJSON(wire.FrameError, &wire.ErrorReply{Msg: err.Error()})
			fc.wmu.Unlock()
			return
		}
	}
}

// teardown detaches every proxied session from its backend (best effort —
// a dead backend's sessions are simply finalized) and releases ring slots.
func (fc *frontConn) teardown() {
	fc.c.Close()
	fc.mu.Lock()
	sessions := make([]*proxySession, 0, len(fc.sessions))
	for h, ps := range fc.sessions {
		sessions = append(sessions, ps)
		delete(fc.sessions, h)
	}
	fc.mu.Unlock()
	for _, ps := range sessions {
		ps.mu.Lock()
		if !ps.detached {
			ps.detached = true
			ps.rs.Detach()
			fc.gw.leaveLocked(ps)
			close(ps.done)
		}
		ps.mu.Unlock()
	}
}

// handle processes one front frame on the reader goroutine. Returning an
// error closes the connection; session-scoped failures are reported with
// FrameError instead.
func (fc *frontConn) handle(f wire.Frame) error {
	switch f.Type {
	case wire.FrameAttach:
		return fc.handleAttach(f.Payload)
	case wire.FrameBatch:
		return fc.handleBatch(f.Payload)
	case wire.FrameFlush:
		return fc.handleSessionOp(f.Payload, wire.FrameFlushOK, false)
	case wire.FrameDetach:
		return fc.handleSessionOp(f.Payload, wire.FrameDetachOK, true)
	case wire.FrameMetricsReq:
		m := fc.gw.Metrics()
		fc.wmu.Lock()
		defer fc.wmu.Unlock()
		return fc.w.WriteJSON(wire.FrameMetricsOK, m)
	case wire.FramePing:
		var ping wire.Ping
		if err := unmarshal(f.Payload, &ping); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		pong := wire.Pong{Seq: ping.Seq, Name: fc.gw.cfg.Name, Sessions: fc.gw.sessionTotal()}
		fc.wmu.Lock()
		defer fc.wmu.Unlock()
		return fc.w.WriteJSON(wire.FramePong, &pong)
	default:
		return fmt.Errorf("unexpected %s frame from client", f.Type)
	}
}

func (fc *frontConn) handleAttach(payload []byte) error {
	var req wire.AttachRequest
	if err := unmarshal(payload, &req); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	if req.Version != wire.ProtocolVersion {
		return fmt.Errorf("attach: protocol version %d, gateway speaks %d", req.Version, wire.ProtocolVersion)
	}
	ps := &proxySession{
		fc:       fc,
		id:       req.ID,
		gestures: req.Gestures,
		notify:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	// A new session is a session with no owner yet: the same transition that
	// moves one off a dead backend places it.
	ps.mu.Lock()
	err := fc.gw.ensureOwnerLocked(ps)
	ps.mu.Unlock()
	if err != nil {
		// No backend, or the backend refused (duplicate ID, unknown plan, …):
		// a session-scoped error; the connection survives.
		return fc.sessionError(0, err)
	}
	ps.fields = ps.rs.Fields()
	reply := &wire.AttachReply{Fields: ps.fields, Plans: ps.rs.Plans()}
	fc.mu.Lock()
	fc.nextHandle++
	ps.front = fc.nextHandle
	fc.sessions[ps.front] = ps
	fc.mu.Unlock()
	reply.Handle = ps.front
	go fc.relayLoop(ps)
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	return fc.w.WriteJSON(wire.FrameAttachOK, reply)
}

// Bounds on the handleBatch eject-and-retry loop. A flapping backend (dies
// under the write, is re-admitted as a fresh incarnation, dies again) used
// to spin this loop hot and without end; now each retry backs off
// exponentially and the batch fails the session after batchRetryLimit
// incarnations — a deterministic termination the flapping-backend test pins.
const (
	batchRetryLimit      = 8
	batchRetryBackoff    = time.Millisecond
	batchRetryBackoffMax = 50 * time.Millisecond
)

func (fc *frontConn) handleBatch(payload []byte) error {
	handle, count, fields, err := wire.BatchGeometry(payload)
	if err != nil {
		return err
	}
	ps := fc.session(handle)
	if ps == nil {
		return fmt.Errorf("batch for unknown session handle %d", handle)
	}
	if fields != ps.fields {
		return fmt.Errorf("session %q: batch carries %d-field tuples, schema expects %d", ps.id, fields, ps.fields)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.failedLocked(); err != nil {
		return err
	}
	// Only trace-sampled batches pay for forward timing; the flag check is
	// a byte mask on the raw payload, which rides through ProxyBatch
	// untouched (it only patches the handle bytes).
	traced := wire.BatchTraced(payload)
	// Take ownership of the reader's pooled payload buffer: the batch was
	// read once from the front socket and is handed to the backend
	// connection in place — no intermediate copy. On success the backend's
	// coalescing flusher returns the buffer to the frame pool after the
	// vectored write; until then (and on every error path below) this
	// function owns it.
	fc.r.Detach()
	backoff := batchRetryBackoff
	for attempt := 1; ; attempt++ {
		// The hand-off blocks when the backend connection's coalescer is
		// full — that is serve.Block's backpressure, relayed one hop: this
		// reader goroutine stalls, the front socket fills, TCP paces the
		// remote producer. For traced batches the forward histogram times
		// exactly that hand-off (queue admission), the gateway's share of
		// the pipeline.
		var start time.Time
		if traced {
			start = time.Now()
		}
		if _, err := ps.be.cl.ProxyBatchOwned(ps.rs.Handle(), payload); err == nil {
			if traced {
				ps.be.stats.forward.ObserveSince(start)
			}
			ps.in += uint64(count)
			ps.forwarded += uint64(count)
			ps.be.stats.batches.Add(1)
			ps.be.stats.tuples.Add(uint64(count))
			return nil
		}
		// The backend died under the write: eject it, give this session a new
		// owner and retry the batch there — the tuples of THIS batch were
		// never admitted anywhere (a failed ProxyBatchOwned leaves ownership
		// with us), so forwarding them again loses nothing and drops nothing.
		fc.gw.eject(ps.be, ps)
		if attempt >= batchRetryLimit {
			wire.PutFrameBuf(payload)
			return fmt.Errorf("session %q: cluster: batch failed on %d backend incarnations, giving up", ps.id, attempt)
		}
		if err := fc.gw.ensureOwnerLocked(ps); err != nil {
			wire.PutFrameBuf(payload)
			return err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > batchRetryBackoffMax {
			backoff = batchRetryBackoffMax
		}
	}
}

// failedLocked reports why the session can take no more frames: the sticky
// ownership failure, or a completed detach. Callers hold ps.mu.
func (ps *proxySession) failedLocked() error {
	if ps.err != nil {
		return fmt.Errorf("session %q: %w", ps.id, ps.err)
	}
	if ps.detached {
		return fmt.Errorf("session %q is detached", ps.id)
	}
	return nil
}

// handleSessionOp implements flush and detach: round-trip to the owning
// backend (which guarantees every prior tuple's detection was pushed to the
// gateway first), then drain the relay buffer and acknowledge with
// gateway-adjusted counters — all under the front write lock, so the ack
// can never overtake a detection.
func (fc *frontConn) handleSessionOp(payload []byte, ack wire.FrameType, detach bool) error {
	var ref wire.SessionRef
	if err := unmarshal(payload, &ref); err != nil {
		return fmt.Errorf("%s: %w", ack, err)
	}
	ps := fc.session(ref.Handle)
	if ps == nil {
		return fc.sessionError(ref.Handle, fmt.Errorf("cluster: no session with handle %d", ref.Handle))
	}
	ps.mu.Lock()
	if err := ps.failedLocked(); err != nil {
		ps.mu.Unlock()
		return fc.sessionError(ref.Handle, err)
	}
	var bc wire.SessionCounters
	var err error
	for {
		if detach {
			bc, err = ps.rs.Detach()
		} else {
			bc, err = ps.rs.Flush()
		}
		if err == nil {
			break
		}
		if refused(err) {
			ps.mu.Unlock()
			return fc.sessionError(ref.Handle, err)
		}
		// Backend died under the round trip. For a flush: eject, take a new
		// owner and flush the fresh (empty) session there — the lost tuples
		// are now in the drop accounting. For a detach: the session is going
		// away anyway; finalize locally instead of re-homing a corpse.
		fc.gw.eject(ps.be, ps)
		if detach {
			ps.chargeLostLocked()
			bc = wire.SessionCounters{}
			break
		}
		if err := fc.gw.ensureOwnerLocked(ps); err != nil {
			ps.mu.Unlock()
			return fc.sessionError(ref.Handle, err)
		}
	}
	ps.backendDropped.Store(bc.Dropped)
	lost := ps.lost.Load()
	counters := wire.SessionCounters{
		Handle:            ps.front,
		In:                ps.in,
		Out:               lost + bc.Out,
		Dropped:           lost + bc.Dropped,
		DetectionsDropped: bc.DetectionsDropped + ps.detDropped.Load(),
	}
	if detach {
		ps.detached = true
		fc.gw.leaveLocked(ps)
		close(ps.done)
	}
	ps.mu.Unlock()
	if detach {
		fc.mu.Lock()
		delete(fc.sessions, ps.front)
		fc.mu.Unlock()
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	if err := fc.relayDetectionsLocked(ps); err != nil {
		return err
	}
	counters.Detections = ps.detSent.Load()
	return fc.w.WriteJSON(ack, &counters)
}

func (fc *frontConn) session(handle uint32) *proxySession {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.sessions[handle]
}

// sessionError reports a session-scoped failure without closing the front
// connection.
func (fc *frontConn) sessionError(handle uint32, err error) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	return fc.w.WriteJSON(wire.FrameError, &wire.ErrorReply{Handle: handle, Msg: err.Error()})
}

// relayLoop streams parked detections to the front client until the
// session detaches or the connection dies.
func (fc *frontConn) relayLoop(ps *proxySession) {
	for {
		select {
		case <-ps.notify:
			fc.wmu.Lock()
			err := fc.relayDetectionsLocked(ps)
			fc.wmu.Unlock()
			if err != nil {
				fc.c.Close() // wake the reader, which tears down
				return
			}
		case <-ps.done:
			return
		}
	}
}

// relayDetectionsLocked drains the session's parked detections into
// FrameDetections frames addressed with the front handle and the
// gateway-adjusted drop count. Callers hold fc.wmu.
func (fc *frontConn) relayDetectionsLocked(ps *proxySession) error {
	for {
		ps.pmu.Lock()
		pending := ps.pending
		ps.pending = nil
		ps.pmu.Unlock()
		if len(pending) == 0 {
			return nil
		}
		dropped := ps.dropTotal()
		for len(pending) > 0 {
			n := len(pending)
			if n > wire.MaxDetections {
				n = wire.MaxDetections
			}
			buf, err := wire.AppendDetections(ps.encBuf[:0], ps.front, dropped, pending[:n])
			if err != nil {
				return err
			}
			ps.encBuf = buf[:0]
			if err := fc.w.WriteFrame(wire.FrameDetections, buf); err != nil {
				return err
			}
			ps.detSent.Add(uint64(n))
			ps.cur.Load().stats.detections.Add(uint64(n))
			pending = pending[n:]
		}
	}
}

// unmarshal decodes a JSON control payload.
func unmarshal(payload []byte, v any) error {
	return json.Unmarshal(payload, v)
}
