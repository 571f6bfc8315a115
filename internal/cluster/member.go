package cluster

import (
	"fmt"
	"time"

	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
)

// logOp records one membership verb — AddBackend, Drain or RemoveBackend —
// as the one event the gateway's log (/events) holds for it, the fleet's
// only record of what was asked of it: msg at info when the verb applied,
// "backend <op> refused" at warn with the error when it did not. Every
// event carries op, backend and duration besides the verb's own fields.
// The verbs call it under memberMu, so events keep apply order.
func (gw *Gateway) logOp(op, id string, start time.Time, err error, msg string, fields ...obs.Field) {
	fields = append([]obs.Field{obs.F("op", op), obs.F("backend", id)}, fields...)
	fields = append(fields, obs.F("duration", time.Since(start).String()))
	if err != nil {
		gw.log.Warn("backend "+op+" refused", append(fields, obs.F("err", err.Error()))...)
		return
	}
	gw.log.Info(msg, fields...)
}

// AddBackend admits a new fleet member at runtime: dial and verify its data
// and probe connections, install the incarnation and enter it on the ring
// (fleet.install; an address that accepts but never answers a ping is
// refused within ProbeTimeout and changes nothing). The
// bounded-load placement then steers new sessions toward the fresh, empty
// backend (ceil(c × avg) caps everyone else) — a gradual re-balance, no
// forced movement. Re-using the ID of a drained member re-admits it (the
// rolling-restart cycle: drain → deploy → AddBackend); a live, draining or
// recovering ID is refused.
func (gw *Gateway) AddBackend(id, addr string) error {
	gw.memberMu.Lock()
	defer gw.memberMu.Unlock()
	start := time.Now()
	var err error
	if id == "" || addr == "" {
		err = fmt.Errorf("cluster: backend needs both an id and an address")
	} else {
		_, err = gw.fleet.install(id, addr, nil)
	}
	gw.logOp("add", id, start, err, "backend added", obs.F("addr", addr))
	return err
}

// Drain gracefully retires a live backend: it is closed to new placements
// first, then every session it carries is live-migrated onto the rest
// of the fleet — full NFA state, zero tuple loss, detections byte-identical
// to a run that never moved — and only then are its connections dropped.
// The drained member stays configured: AddBackend re-admits it, or
// RemoveBackend forgets it. On a migration failure (typically no remaining
// capacity) the drain reverts: the backend reopens to placements, the
// already-moved sessions stay validly placed on their targets, and the
// error reports the first session that could not move. Returns the number
// of sessions migrated.
func (gw *Gateway) Drain(id string) (moved int, err error) {
	gw.memberMu.Lock()
	defer gw.memberMu.Unlock()
	start := time.Now()
	defer func() { gw.logOp("drain", id, start, err, "backend drained", obs.F("sessions", moved)) }()
	m, ok := gw.fleet.lookup(id)
	if !ok {
		return 0, fmt.Errorf("cluster: no backend %s", id)
	}
	be := m.be
	if be == nil || m.state != StateLive {
		return 0, fmt.Errorf("cluster: backend %s is not live (state %s)", id, m.state)
	}
	if err := gw.fleet.setDraining(be, true); err != nil { // no new sessions land here while draining
		return 0, err
	}

	// revert returns a drain that cannot complete to live service; the
	// sessions the backend still carries never stopped serving — a failed
	// drain loses nothing. (If an ejection got there first, setDraining
	// refuses and the ejection's verdict stands.)
	revert := func(cause error) (int, error) {
		gw.fleet.setDraining(be, false)
		return moved, cause
	}

	for {
		select {
		case <-gw.quit:
			return revert(fmt.Errorf("cluster: drain of %s aborted by shutdown", id))
		default:
		}
		be.mu.Lock()
		var ps *proxySession
		for s := range be.sessions {
			ps = s
			break
		}
		be.mu.Unlock()
		if ps == nil {
			break
		}
		ps.mu.Lock()
		if ps.be != be || ps.detached || ps.err != nil {
			// The session moved or ended between the snapshot and the lock;
			// make sure it leaves the set so the sweep terminates.
			ps.mu.Unlock()
			be.dropSession(ps)
			continue
		}
		merr := gw.migrateLocked(ps)
		ps.mu.Unlock()
		if merr != nil {
			if be.isEjected() {
				// The source died mid-drain: eject re-homed the survivors
				// (lossily, with explicit accounting) and retired the
				// incarnation; there is nothing left to drain or revert.
				return moved, fmt.Errorf("cluster: backend %s died while draining: %w", id, merr)
			}
			return revert(fmt.Errorf("cluster: drain %s: session %q: %w", id, ps.id, merr))
		}
		moved++
	}

	// Finalize: retire the drained incarnation, which now carries no
	// sessions. A concurrent ejection (a probe or data-path failure
	// mid-drain) wins the race — it already re-homed whatever was left and
	// moved the state machine on.
	if _, _, ok := gw.fleet.retire(be, true); !ok {
		return moved, fmt.Errorf("cluster: backend %s was ejected mid-drain (state %s)", id, gw.State(id))
	}
	return moved, nil
}

// RemoveBackend forgets a member that is out of the serving path — drained,
// or still recovering (its re-dial loop is cancelled).
// A live or draining backend must be drained first; removal never moves
// sessions.
func (gw *Gateway) RemoveBackend(id string) error {
	gw.memberMu.Lock()
	defer gw.memberMu.Unlock()
	start := time.Now()
	err := gw.fleet.remove(id)
	gw.logOp("remove", id, start, err, "backend removed")
	return err
}

// BackendsInfo snapshots the fleet membership for /backends: one row per
// member in admission order, with its lifecycle state, incarnation count,
// ring load, proxied session count and proxy counters. It fetches nothing
// from the backends, so Healthy reads in service (live or draining).
func (gw *Gateway) BackendsInfo() []serve.BackendMetrics {
	_, rows := gw.backendRows()
	return rows
}
