package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/obs"
	"gesturecep/internal/wire"
)

// backendStats is the per-backend-ID counter block Metrics reports. It is
// shared by every incarnation of one backend (the fleet allocates it once
// per member), so counters stay monotonic across eject/re-admit cycles and
// a session straggling on a dead incarnation still charges its losses to
// the right row.
type backendStats struct {
	batches      atomic.Uint64
	tuples       atomic.Uint64
	detections   atomic.Uint64
	lost         atomic.Uint64
	rehomed      atomic.Uint64
	probeSeq     atomic.Uint64
	probes       atomic.Uint64 // completed successful health probes
	ejections    atomic.Uint64
	readmissions atomic.Uint64 // admissions via the recovery loop
	incarnations atomic.Uint64 // incarnations installed for this ID

	// forward records ProxyBatch write latency of trace-sampled batches;
	// probeRTT records every successful health-probe round trip. Both span
	// incarnations, like the counters above.
	forward  *obs.Histogram
	probeRTT *obs.Histogram
}

// backend is one incarnation of a fleet member: a shared data connection
// carrying every proxied session homed there, a dedicated probe connection
// (so a health check never queues behind a long flush), and a reference to
// the member's cross-incarnation counters. An ejected incarnation is never
// resurrected — re-admission installs a fresh one with fresh connections,
// which is what keeps stale sessions from ever writing to a recovered
// backend's new sockets.
type backend struct {
	id    string
	addr  string
	inc   uint64 // incarnation ordinal (1-based), for lifecycle log fields
	stats *backendStats
	cl    *wire.Client // data + control for proxied sessions
	pr    *wire.Client // health probes only

	mu       sync.Mutex
	sessions map[*proxySession]struct{}
	ejected  bool

	probing atomic.Bool // a health probe is in flight for this incarnation
}

func (be *backend) isEjected() bool {
	be.mu.Lock()
	defer be.mu.Unlock()
	return be.ejected
}

// register enters ps in the incarnation's session set unless the incarnation
// is already retired. Checking and adding under one lock is what makes the
// eject sweep exact: a session is either refused here or in the snapshot
// retire takes when it sets the flag.
func (be *backend) register(ps *proxySession) bool {
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.ejected {
		return false
	}
	be.sessions[ps] = struct{}{}
	return true
}

func (be *backend) dropSession(ps *proxySession) {
	be.mu.Lock()
	delete(be.sessions, ps)
	be.mu.Unlock()
}

func (be *backend) sessionCount() int {
	be.mu.Lock()
	defer be.mu.Unlock()
	return len(be.sessions)
}

// member is one configured backend ID: its address, lifecycle state, current
// incarnation and the counters every incarnation shares.
type member struct {
	id    string
	addr  string
	state BackendState
	be    *backend // current incarnation; nil while down
	stats *backendStats
	// cancel is non-nil while a recovery loop re-dials this member;
	// RemoveBackend closes it so a decommissioned ID stops being re-dialed.
	// It doubles as that loop's claim on the member: install admits the
	// loop only while this is still the channel it was started with.
	cancel chan struct{}
}

// fleet is the gateway's routing state: which backends are members, what
// lifecycle state each is in, which incarnation currently serves it, and the
// placement ring over the live ones. Sessions see only lookup (ring ID →
// incarnation) and, through Gateway.eject, retire; everything that changes
// membership goes through install, setDraining, retire and remove, which
// keep one invariant under mu: an ID is on the ring exactly while its member
// has a current incarnation, and open to placements exactly while it is
// live.
type fleet struct {
	cfg  Config
	log  *obs.Logger
	ring *Ring
	quit chan struct{} // the gateway's; closed by Gateway.Close

	mu        sync.Mutex
	members   map[string]*member
	order     []string // member IDs in admission order, for metrics
	closed    bool
	recoverWG sync.WaitGroup // per-member recovery loops
}

func newFleet(cfg Config, log *obs.Logger, quit chan struct{}) *fleet {
	return &fleet{
		cfg:     cfg,
		log:     log,
		ring:    NewRing(DefaultVNodes, DefaultLoadFactor),
		quit:    quit,
		members: make(map[string]*member),
	}
}

var errClosed = errors.New("cluster: gateway closed")

// lookup returns a copy of one member's row; ok is false for an unknown ID.
func (fl *fleet) lookup(id string) (member, bool) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if m := fl.members[id]; m != nil {
		return *m, true
	}
	return member{}, false
}

// snapshot copies every member's row, in admission order.
func (fl *fleet) snapshot() []member {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	out := make([]member, 0, len(fl.order))
	for _, id := range fl.order {
		out = append(out, *fl.members[id])
	}
	return out
}

// memberLocked returns id's row, creating it (at the end of the admission
// order) on first sight.
func (fl *fleet) memberLocked(id, addr string) *member {
	m := fl.members[id]
	if m == nil {
		m = &member{id: id, stats: &backendStats{forward: obs.NewHistogram(), probeRTT: obs.NewHistogram()}}
		fl.members[id] = m
		fl.order = append(fl.order, id)
	}
	m.addr = addr
	return m
}

// admissibleLocked reports whether the caller may install an incarnation of
// id now: the member must have none (unknown, drained or recovering), and
// the caller's claim must be the one on the slot — the cancel channel of the
// recovery loop that owns a recovering member, nil otherwise. Matching the
// channel rather than the state is what refuses a superseded loop:
// RemoveBackend, AddBackend and a fresh ejection can put the ID back in
// recovery under a new loop while an old one is mid-dial.
func (fl *fleet) admissibleLocked(id string, claim chan struct{}) error {
	if fl.closed {
		return errClosed
	}
	var cur member
	if m := fl.members[id]; m != nil {
		cur = *m
	}
	switch {
	case claim != nil && cur.cancel != claim:
		return fmt.Errorf("cluster: recovery of backend %s was superseded", id)
	case cur.cancel != claim || cur.be != nil:
		return fmt.Errorf("cluster: backend %s is already a member (state %s)", id, cur.state)
	}
	return nil
}

// install is the one way an incarnation enters the fleet — startup,
// AddBackend (claim nil) and the recovery loop (claim: its cancel channel)
// all come through here. It dials the data and probe connections, each
// verified live by a ping within ProbeTimeout (a bare TCP accept is not
// liveness), then publishes the incarnation and its ring entry in one step
// under mu: nothing can eject an incarnation before it is published (probes
// and sessions only discover it through lookup), so an eject can never
// interleave and leave the ID on the ring with no incarnation behind it.
// Existing sessions are untouched; the bounded-load ring's ceil(c·avg) cap
// steers new sessions toward the fresh, empty backend — a gradual re-balance.
func (fl *fleet) install(id, addr string, claim chan struct{}) (*backend, error) {
	fl.mu.Lock()
	err := fl.admissibleLocked(id, claim)
	fl.mu.Unlock()
	if err != nil {
		return nil, err
	}
	cl, err := fl.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: backend %s (%s): %w", id, addr, err)
	}
	pr, err := fl.dial(addr)
	if err != nil {
		cl.Close()
		return nil, fmt.Errorf("cluster: backend %s (%s): probe: %w", id, addr, err)
	}
	// The data connection coalesces: all front sessions homed on this
	// backend funnel their frames through one flusher goroutine and one
	// vectored write per flush cycle. The probe connection stays plain — it
	// carries one ping at a time.
	cl.EnableCoalescing()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	err = fl.admissibleLocked(id, claim)
	if err == nil {
		err = fl.ring.Add(id)
	}
	if err != nil {
		cl.Close()
		pr.Close()
		return nil, err
	}
	m := fl.memberLocked(id, addr)
	be := &backend{id: id, addr: addr, inc: m.stats.incarnations.Add(1),
		stats: m.stats, cl: cl, pr: pr,
		sessions: make(map[*proxySession]struct{})}
	m.be, m.state, m.cancel = be, StateLive, nil
	return be, nil
}

// dial opens one verified connection (wire.Redial: dial + ping within
// ProbeTimeout), abandoning the attempt the moment the gateway starts
// closing so Close never waits out a black-holed address. An abandoned
// attempt's connection is reaped by a short-lived goroutine bounded by the
// Redial timeout itself.
func (fl *fleet) dial(addr string) (*wire.Client, error) {
	type result struct {
		cl  *wire.Client
		err error
	}
	done := make(chan result, 1)
	go func() {
		cl, err := wire.Redial(addr, fl.cfg.ProbeTimeout)
		done <- result{cl, err}
	}()
	select {
	case r := <-done:
		return r.cl, r.err
	case <-fl.quit:
		go func() {
			if r := <-done; r.cl != nil {
				r.cl.Close()
			}
		}()
		return nil, errClosed
	}
}

// recoverLater enters id as a recovering member (creating it if need be)
// and starts its recovery loop — NewGateway's path for a backend that is
// down at startup.
func (fl *fleet) recoverLater(id, addr string) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.recoverLocked(fl.memberLocked(id, addr))
}

// recoverLocked hands a member with no incarnation to a recovery loop.
func (fl *fleet) recoverLocked(m *member) {
	m.state = StateRecovering
	m.cancel = make(chan struct{})
	fl.recoverWG.Add(1)
	go fl.recoverLoop(m.id, m.addr, m.cancel)
}

// recoverLoop re-installs one ejected (or initially-down) backend with
// capped exponential backoff until it is re-admitted, decommissioned
// (RemoveBackend closes cancel) or the gateway closes.
func (fl *fleet) recoverLoop(id, addr string, cancel chan struct{}) {
	defer fl.recoverWG.Done()
	backoff := fl.cfg.ReadmitBackoff
	timer := time.NewTimer(backoff)
	defer timer.Stop()
	for {
		select {
		case <-fl.quit:
			return
		case <-cancel:
			return
		case <-timer.C:
		}
		// A refusal other than a failed dial means this loop lost its claim
		// (RemoveBackend closed cancel) or the gateway closed (quit), so the
		// select above ends the loop on the next pass.
		if be, err := fl.install(id, addr, cancel); err == nil {
			be.stats.readmissions.Add(1)
			fl.log.Info("backend re-admitted",
				obs.F("backend", id), obs.F("addr", addr), obs.F("incarnation", be.inc),
				obs.F("state", string(StateLive)))
			return
		}
		if backoff *= 2; backoff > fl.cfg.ReadmitMaxBackoff {
			backoff = fl.cfg.ReadmitMaxBackoff
		}
		timer.Reset(backoff)
	}
}

// setDraining closes a live member to new placements for a drain, or
// (draining false) reopens a draining one. It fails when be is no longer the
// member's current incarnation in the expected state — an ejection won the
// race. The ID keeps its ring load throughout, so the sessions it still
// carries stay charged to it whether the drain completes or reverts.
func (fl *fleet) setDraining(be *backend, draining bool) error {
	from, to := StateLive, StateDraining
	if !draining {
		from, to = to, from
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return errClosed
	}
	m := fl.members[be.id]
	if m == nil || m.be != be || m.state != from {
		return fmt.Errorf("cluster: backend %s is no longer %s", be.id, from)
	}
	fl.ring.SetOpen(be.id, !draining)
	m.state = to
	return nil
}

// retire takes an incarnation out of service: marks it ejected, removes its
// ring entry, moves its member on — to drained when a drain emptied it,
// otherwise to recovering, or to ejected once Close has begun and nothing
// re-dials — and closes its connections, which makes every round trip
// still blocked on it fail fast.
// It returns the sessions the incarnation carried, for the caller to move.
// Idempotent: the ejected flag admits exactly one caller per incarnation;
// ok is false for every later one.
func (fl *fleet) retire(be *backend, drained bool) (sessions []*proxySession, state BackendState, ok bool) {
	be.mu.Lock()
	if be.ejected {
		be.mu.Unlock()
		return nil, "", false
	}
	be.ejected = true
	for ps := range be.sessions {
		sessions = append(sessions, ps)
	}
	be.sessions = nil
	be.mu.Unlock()
	fl.mu.Lock()
	if m := fl.members[be.id]; m != nil {
		if m.be == be {
			fl.ring.Remove(be.id)
			m.be = nil
			switch {
			case drained:
				m.state = StateDrained
			case !fl.closed:
				fl.recoverLocked(m)
			default:
				m.state = StateEjected
			}
		}
		state = m.state
	}
	fl.mu.Unlock()
	be.cl.Close()
	be.pr.Close()
	return sessions, state, true
}

// remove forgets a member that is out of the serving path — drained, or
// still recovering (its re-dial loop is cancelled).
func (fl *fleet) remove(id string) error {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if fl.closed {
		return errClosed
	}
	m := fl.members[id]
	if m == nil {
		return fmt.Errorf("cluster: no backend %s", id)
	}
	switch m.state {
	case StateDrained, StateRecovering:
	default:
		return fmt.Errorf("cluster: backend %s is %s; drain it before removing", id, m.state)
	}
	if m.cancel != nil {
		close(m.cancel)
	}
	delete(fl.members, id)
	fl.order = slices.DeleteFunc(fl.order, func(o string) bool { return o == id })
	return nil
}

// shutdown refuses every later membership change and waits the recovery
// loops out (they watch quit, which the gateway closes first).
func (fl *fleet) shutdown() {
	fl.mu.Lock()
	fl.closed = true
	fl.mu.Unlock()
	fl.recoverWG.Wait()
}

// closeAll drops the connections of every current incarnation.
func (fl *fleet) closeAll() {
	for _, m := range fl.snapshot() {
		if m.be != nil {
			m.be.cl.Close()
			m.be.pr.Close()
		}
	}
}
