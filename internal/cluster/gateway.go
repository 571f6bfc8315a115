package cluster

import (
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

// Gateway terminates the wire protocol in front of a backend fleet. Remote
// clients speak to it exactly as they would to a single gestured process —
// attach, batch, flush, detach, metrics, ping — while each session's frames
// are proxied to the backend the ring assigns it.
type Gateway struct {
	cfg   Config
	fleet *fleet      // membership, incarnations and the placement ring
	log   *obs.Logger // never nil; see NewGateway
	// front speaks the wire protocol to clients; the gateway is its host
	// (proxyHost) and knows nothing of frames, handles or write locks.
	front    *wire.Server
	sessions atomic.Int64 // proxied sessions across all front connections

	// memberMu serializes membership operations — AddBackend, Drain,
	// RemoveBackend — against each other, and so orders their events in
	// the log; Close waits on it for the one in flight. The fleet's own lock
	// stays the fine-grained one for each state step inside them. Lock
	// ordering: memberMu before fleet.mu, never the reverse.
	memberMu sync.Mutex

	closeOnce sync.Once
	closeErr  error

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

	quit      chan struct{}
	probeDone chan struct{}
	probeWG   sync.WaitGroup // in-flight probes and their ping goroutines
}

// NewGateway installs every configured backend (verified data + probe
// connections) and builds the ring. A backend that does not answer is
// admitted through the recovery loop, exactly like one lost later: the
// gateway starts on the reachable subset and the rest join the ring when
// they answer pings. Only an invalid Config fails it.
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
		quit:        quit,
		probeDone:   make(chan struct{}),
		migrateDur:  obs.NewHistogram(),
		backfillDur: obs.NewHistogram(),
	}
	gw.front = wire.NewHostServer(proxyHost{gw})
	gw.front.Name = cfg.Name
	for _, b := range cfg.Backends {
		if _, err := gw.fleet.install(b.ID, b.Addr, nil); err != nil {
			gw.log.Warn("backend down at startup; admitting through recovery",
				obs.F("backend", b.ID), obs.F("addr", b.Addr),
				obs.F("state", string(StateRecovering)), obs.F("err", err.Error()))
			gw.fleet.recoverLater(b.ID, b.Addr)
		}
	}
	go gw.probeLoop()
	return gw, nil
}

// State reports a backend's lifecycle state ("" for an unknown ID).
func (gw *Gateway) State(id string) BackendState {
	m, _ := gw.fleet.lookup(id)
	return m.state
}

// Ring exposes the placement ring (read-mostly: lookups and load).
func (gw *Gateway) Ring() *Ring { return gw.fleet.ring }

// Serve accepts front connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (gw *Gateway) Serve(ln net.Listener) error { return gw.front.Serve(ln) }

// ListenAndServe listens on addr and serves until Close.
func (gw *Gateway) ListenAndServe(addr string) error { return gw.front.ListenAndServe(addr) }

// Addr returns the front listener address once Serve is running.
func (gw *Gateway) Addr() net.Addr { return gw.front.Addr() }

// Close stops the prober (waiting out any in-flight pings), the recovery
// loops, the listener and every front connection (whose teardown detaches
// their backend sessions), then drops the backend connections.
func (gw *Gateway) Close() error {
	gw.closeOnce.Do(func() {
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
		gw.closeErr = gw.front.Close()
		gw.fleet.closeAll()
	})
	return gw.closeErr
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
							obs.F("incarnation", be.inc), obs.F("err", err.Error()))
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

// proxyHost is the gateway as the front server's host: every session it
// attaches is a proxySession placed on a backend.
type proxyHost struct{ gw *Gateway }

func (h proxyHost) SessionCount() int      { return int(h.gw.sessions.Load()) }
func (h proxyHost) Metrics() serve.Metrics { return h.gw.Metrics() }

func (h proxyHost) Attach(req wire.AttachRequest, push *wire.Push) (wire.Session, wire.AttachReply, error) {
	ps := &proxySession{gw: h.gw, id: req.ID, gestures: req.Gestures, push: push}
	// A new session is a session with no owner yet: the same transition that
	// moves one off a dead backend places it.
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := h.gw.ensureOwnerLocked(ps); err != nil {
		// No backend, or the backend refused (duplicate ID, unknown plan, …).
		return nil, wire.AttachReply{}, err
	}
	// The first owner's read set is the one the client is given: it sends
	// narrowed batches the gateway forwards unchanged, so every later owner
	// must advertise the same set (place refuses one that does not).
	ps.fields, ps.reads = ps.rs.Fields(), ps.rs.Reads()
	h.gw.sessions.Add(1)
	return ps, wire.AttachReply{Fields: ps.fields, Plans: ps.rs.Plans(), Reads: ps.reads}, nil
}

// proxySession is one front session and its ownership record: which backend
// incarnation currently holds its serving state.
type proxySession struct {
	gw       *Gateway
	id       string
	gestures []string
	fields   int
	reads    []int      // the read set the client narrows to; nil: full width
	push     *wire.Push // the front server's detection buffer for this session

	// mu serializes the data/control path against owner changes: forwards,
	// flush and detach round trips, failover and migration all hold it.
	mu       sync.Mutex
	in       uint64 // tuples forwarded, all incarnations
	detached bool

	// The ownership record. be/rs/cur change only in bind; forwarded is what
	// would die with be (Batch counts it up, chargeLostLocked writes it off);
	// err is set only by ensureOwnerLocked, when the owner is dead and no
	// other can be found, and is sticky: every later frame reports it.
	be        *backend
	rs        *wire.RemoteSession
	forwarded uint64
	err       error
	// cur shadows be for push hooks, which do not hold mu: it tells the
	// current owner's pushes from a previous owner's stragglers.
	cur atomic.Pointer[backend]

	lost           atomic.Uint64 // tuples charged to dead incarnations
	backendDropped atomic.Uint64 // current incarnation's reported drops
}

// dropTotal is the cumulative tuple-drop count the front client sees:
// failover losses plus the live incarnation's DropOldest evictions.
func (ps *proxySession) dropTotal() uint64 {
	return ps.lost.Load() + ps.backendDropped.Load()
}

// pushHook builds the OnDetections callback for the session's attachment to
// one backend incarnation. It runs on that backend client's read goroutine
// for every detection push frame of this session and hands the detections
// to the front server. They are always relayed (they happened), but the drop
// counter is only taken from the current owner: a dead backend's read
// goroutine may still be mid-push after the owner flipped, and its
// cumulative count is already folded into lost.
func (ps *proxySession) pushHook(from *backend) func(uint64, []anduin.Detection) {
	return func(dropped uint64, dets []anduin.Detection) {
		if ps.cur.Load() == from {
			ps.backendDropped.Store(dropped)
		}
		from.stats.detections.Add(uint64(len(dets)))
		ps.push.Detections(ps.dropTotal(), dets)
	}
}

// Bounds on Batch's eject-and-retry loop. A flapping backend (dies under the
// write, is re-admitted as a fresh incarnation, dies again) used to spin
// this loop hot and without end; now each retry backs off exponentially and
// the batch fails the session after batchRetryLimit incarnations — a
// deterministic termination the flapping-backend test pins.
const (
	batchRetryLimit      = 8
	batchRetryBackoff    = time.Millisecond
	batchRetryBackoffMax = 50 * time.Millisecond
)

// Batch forwards one batch to the session's owner: the payload the front
// reader filled is re-addressed in place and handed to the backend
// connection — never decoded, never copied. A narrowed batch must carry the
// read set the client was given, a full-width one the schema's width: the
// owner then accepts it as it stands.
func (ps *proxySession) Batch(b wire.RawBatch) error {
	want, narrowed := ps.fields, wire.BatchNarrowed(b.Payload)
	if narrowed {
		want = len(ps.reads)
	}
	if b.Fields != want {
		return fmt.Errorf("session %q: batch carries %d-field tuples (narrowed %t), session expects %d", ps.id, b.Fields, narrowed, want)
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.failedLocked(); err != nil {
		return err
	}
	// Only trace-sampled batches pay for forward timing; the flag check is
	// a byte mask on the raw payload, which rides through ProxyBatchOwned
	// untouched (it only patches the handle bytes).
	traced := wire.BatchTraced(b.Payload)
	// Take the front reader's pooled buffer. On success the backend's
	// coalescing flusher returns it to the frame pool after the vectored
	// write; until then (and on every error path below) this function owns
	// it.
	payload := b.Own()
	count := uint64(b.Count)
	backoff := batchRetryBackoff
	for attempt := 1; ; attempt++ {
		// The hand-off blocks when the backend connection's coalescer is
		// full — that is serve.Block's backpressure, relayed one hop: the
		// front reader goroutine stalls, the front socket fills, TCP paces
		// the remote producer. For traced batches the forward histogram
		// times exactly that hand-off (queue admission), the gateway's share
		// of the pipeline.
		var start time.Time
		if traced {
			start = time.Now()
		}
		if _, err := ps.be.cl.ProxyBatchOwned(ps.rs.Handle(), payload); err == nil {
			if traced {
				ps.be.stats.forward.ObserveSince(start)
			}
			ps.in += count
			ps.forwarded += count
			ps.be.stats.batches.Add(1)
			ps.be.stats.tuples.Add(count)
			return nil
		}
		// The backend died under the write: eject it, give this session a new
		// owner and retry the batch there — the tuples of THIS batch were
		// never admitted anywhere (a failed ProxyBatchOwned leaves ownership
		// with us), so forwarding them again loses nothing and drops nothing.
		ps.gw.eject(ps.be, ps)
		if attempt >= batchRetryLimit {
			wire.PutFrameBuf(payload)
			return fmt.Errorf("session %q: cluster: batch failed on %d backend incarnations, giving up", ps.id, attempt)
		}
		if err := ps.gw.ensureOwnerLocked(ps); err != nil {
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

// Sync implements flush and detach: one round trip to the owning backend,
// which pushes every prior tuple's detection to the gateway (and so into the
// front server's buffer) before its ack returns; the counters are the
// backend's, adjusted for what died with previous owners.
func (ps *proxySession) Sync(detach bool) (wire.SessionCounters, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := ps.failedLocked(); err != nil {
		return wire.SessionCounters{}, err
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
			return bc, err
		}
		// Backend died under the round trip. For a flush: eject, take a new
		// owner and flush the fresh (empty) session there — the lost tuples
		// are now in the drop accounting. For a detach: the session is going
		// away anyway; finalize locally instead of re-homing a corpse.
		ps.gw.eject(ps.be, ps)
		if detach {
			ps.chargeLostLocked()
			bc = wire.SessionCounters{}
			break
		}
		if err := ps.gw.ensureOwnerLocked(ps); err != nil {
			return bc, err
		}
	}
	ps.backendDropped.Store(bc.Dropped)
	if detach {
		ps.endLocked()
	}
	lost := ps.lost.Load()
	return wire.SessionCounters{
		In:                ps.in,
		Out:               lost + bc.Out,
		Dropped:           lost + bc.Dropped,
		DetectionsDropped: bc.DetectionsDropped,
	}, nil
}

// Close detaches the session from its backend when its front connection
// goes away (best effort — a dead backend's session is simply finalized).
func (ps *proxySession) Close() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.rs.Detach()
	ps.endLocked()
}

// endLocked marks the session detached and takes it off its owner's books.
//
//lint:holds proxySession.mu
func (ps *proxySession) endLocked() {
	ps.detached = true
	ps.gw.leaveLocked(ps)
	ps.gw.sessions.Add(-1)
}
