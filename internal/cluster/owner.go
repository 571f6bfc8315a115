package cluster

import (
	"errors"
	"fmt"

	"gesturecep/internal/wire"
)

// A session changes owner in exactly one way: place finds a live backend and
// attaches the session there, bind flips the ownership record onto it. The
// three reasons a session moves differ only in what surrounds that pair:
//
//   - attach: there is no previous owner (ensureOwnerLocked on a new session);
//   - failover: the previous owner is dead, so what was forwarded to it is
//     charged to Lost and the new owner starts empty (ensureOwnerLocked);
//   - migration: the previous owner is alive, so its recorded history is
//     replayed into the new one between place and bind (migrateLocked), and
//     nothing is lost.
//
// Failover is migration with no source left to replay from.

// errNoBackend is place's verdict on an empty ring.
var errNoBackend = errors.New("cluster: no live backend")

// refused reports whether err is a healthy peer declining a request, as
// opposed to the connection to it failing.
func refused(err error) bool {
	var er *wire.ErrorReply
	return errors.As(err, &er)
}

// place acquires a ring slot for the session and attaches it on that
// backend, in catch-up mode when startAt > 0 (the target then expects exactly
// startAt replayed tuples and mutes its detections until MigrateCommit). A
// candidate that turns out dead is ejected and the next one tried; one that
// is healthy but refuses the session (duplicate ID, unknown plan, …) ends
// the search — the session is unplaceable, not the fleet broken. On error no
// ring slot is held.
//
//lint:holds proxySession.mu
func (gw *Gateway) place(ps *proxySession, startAt uint64) (*backend, *wire.RemoteSession, error) {
	ring := gw.fleet.ring
	for {
		id, ok := ring.Acquire(ps.id)
		if !ok {
			return nil, nil, errNoBackend
		}
		m, _ := gw.fleet.lookup(id)
		be := m.be
		if be == nil || be.isEjected() {
			ring.Release(id) // retired between Acquire and lookup
			continue
		}
		rs, err := be.cl.Attach(ps.id, wire.AttachOptions{
			Gestures:     ps.gestures,
			Discard:      true,
			StartAt:      startAt,
			OnDetections: ps.pushHook(be),
		})
		if err == nil {
			return be, rs, nil
		}
		ring.Release(id)
		if refused(err) {
			return nil, nil, err
		}
		gw.eject(be, ps)
	}
}

// bind makes be the session's owner, with forwarded tuples of serving state
// already there (0 for a fresh attachment, the cut ordinal after a
// migration's replay). It reports false, having changed nothing, when be was
// retired after place attached to it: registration and retirement exclude
// each other under be.mu, so either the eject sweep will find the session or
// bind refuses here — a session is never stranded on a dead incarnation
// nobody sweeps. The slot place acquired needs no release then; retirement
// wiped the ID's ring entry.
//
//lint:holds proxySession.mu
func (gw *Gateway) bind(ps *proxySession, be *backend, rs *wire.RemoteSession, forwarded uint64) bool {
	if !be.register(ps) {
		return false
	}
	if ps.be != nil && gw.leaveLocked(ps) {
		ps.be.stats.rehomed.Add(1) // moved off a dead owner: a failover
	}
	ps.be, ps.rs, ps.forwarded = be, rs, forwarded
	ps.cur.Store(be) // be's push hook is now the current one
	ps.backendDropped.Store(0)
	return true
}

// leaveLocked takes the session off its owner's books: the incarnation's
// session set and, if that incarnation is still in service, its ring slot.
// A retired incarnation holds no slots — retirement removed the ID's loads
// wholesale, and with re-admission on, a Release here would debit the fresh
// incarnation for a session it never carried. It reports whether the owner
// was retired.
//
//lint:holds proxySession.mu
func (gw *Gateway) leaveLocked(ps *proxySession) (retired bool) {
	ps.be.dropSession(ps)
	if ps.be.isEjected() {
		return true
	}
	gw.fleet.ring.Release(ps.be.id)
	return false
}

// chargeLostLocked writes off what the session forwarded to its current
// incarnation: that incarnation's NFA state is gone, so those tuples can
// never contribute to a detection again. They move to the session's and the
// backend's Lost counters, which the flush-ack path surfaces as drops.
//
//lint:holds proxySession.mu
func (ps *proxySession) chargeLostLocked() {
	if ps.be != nil {
		ps.be.stats.lost.Add(ps.forwarded)
	}
	ps.lost.Add(ps.forwarded)
	ps.forwarded = 0
	ps.backendDropped.Store(0)
}

// ensureOwnerLocked is the ownership transition: if the session has no live
// owner — none yet, or one that was retired — and has not already failed or
// detached, charge what the dead owner held to Lost, place the session and
// bind it. It returns nil exactly when the session has a live owner
// afterwards; otherwise the sticky failure (or "detached"), which it is the
// only function to set. Calling it on a healthy session is a no-op, so every
// path that may have seen the owner die just calls it: the eject sweep, the
// attach, batch, flush handlers, and a migration whose source died.
//
//lint:holds proxySession.mu
func (gw *Gateway) ensureOwnerLocked(ps *proxySession) error {
	for ps.err == nil && !ps.detached && (ps.be == nil || ps.be.isEjected()) {
		verb := "re-home"
		if ps.be == nil {
			verb = "attach"
		}
		ps.chargeLostLocked()
		be, rs, err := gw.place(ps, 0)
		switch {
		case errors.Is(err, errNoBackend):
			ps.err = fmt.Errorf("cluster: no live backend to %s onto", verb)
		case err != nil:
			ps.err = fmt.Errorf("cluster: %s refused: %w", verb, err)
		default:
			gw.bind(ps, be, rs, 0) // false: be died meanwhile; go round again
		}
	}
	return ps.failedLocked()
}
