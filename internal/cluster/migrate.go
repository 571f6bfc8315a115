package cluster

import (
	"errors"
	"fmt"
	"time"

	"gesturecep/internal/obs"
)

// migrateLocked moves one proxied session from its current backend onto a
// ring-chosen target with full NFA state, detections byte-identical to a
// run that never moved. The caller holds ps.mu, which pauses the session
// for the duration: no batch is forwarded, no flush or detach round-trips,
// and the front producer is paced by TCP backpressure exactly as under a
// slow backend — pausing costs nothing the serving path does not already
// model.
//
// The protocol, in cut-ordinal terms (the invariant is that the target
// replays exactly the source's admitted-tuple count, no more, no fewer):
//
//  1. MigrateBegin on the source seals the session, drains its queue and
//     verifies the recorded history is complete; the reply carries the cut
//     ordinal (tuples admitted so far).
//  2. place attaches the session on a ring-chosen target with StartAt = cut:
//     catch-up mode, detections muted server-side so replay cannot re-fire
//     what the source already delivered.
//  3. The recorded history [0, cut) streams source → gateway → target in
//     batch-frame chunks. A target death mid-replay restarts on a fresh
//     target from ordinal 0 (the source rewinds its history cursor).
//  4. MigrateCommit on the target flushes, verifies exactly cut tuples
//     arrived and unmutes — target state now equals source state at the
//     cut, byte for byte.
//  5. The binding flips (bind) and the source session is detached, relaying
//     its final detections before the ack, per the wire ordering contract.
//
// Failure honesty: an abort before the flip unseals the source and the
// session resumes where it was — zero loss. A target death at any point up
// to and including the flip costs nothing either: the source stays sealed
// with its full history, and the replay restarts on another target. Only a
// source death mid-migration loses state, and then the session fails over
// through ensureOwnerLocked with the same explicit Lost accounting an eject
// would have given it.
func (gw *Gateway) migrateLocked(ps *proxySession) error {
	start := time.Now()
	if err := gw.migrateSessionLocked(ps); err != nil {
		gw.migrationsFailed.Add(1)
		return err
	}
	gw.migrations.Add(1)
	gw.migrateDur.ObserveSince(start)
	return nil
}

//lint:holds proxySession.mu
func (gw *Gateway) migrateSessionLocked(ps *proxySession) error {
	src, srcRS := ps.be, ps.rs
	// sourceDied retires the dead source (moving its other sessions) and
	// fails this one over like them; the migration itself has failed.
	sourceDied := func(cause error) error {
		gw.eject(src, ps)
		if err := gw.ensureOwnerLocked(ps); err != nil {
			return fmt.Errorf("cluster: source died mid-migration (%v) and re-home failed: %w", cause, err)
		}
		return fmt.Errorf("cluster: session %q: source died mid-migration (%v); re-homed with loss", ps.id, cause)
	}
	begin, err := srcRS.MigrateBegin()
	if err != nil {
		if refused(err) {
			// The source is healthy but refused (no history source, lossy
			// recording, migration already running): the session is still
			// serving, nothing to clean up.
			return fmt.Errorf("cluster: session %q: migrate-begin refused: %w", ps.id, err)
		}
		return sourceDied(err)
	}
	cut := begin.Ordinal

	// abort releases the source's history cursor and unseals it, resuming
	// live service with zero loss. A failed abort means the source died
	// under it; the session will take the eject path on its next frame.
	abort := func(cause error) error {
		if _, aerr := srcRS.MigrateAbort(); aerr != nil {
			return fmt.Errorf("%w (abort failed: %v)", cause, aerr)
		}
		return cause
	}

Target:
	for {
		select {
		case <-gw.quit:
			return abort(fmt.Errorf("cluster: session %q: migration aborted by shutdown", ps.id))
		default:
		}
		// The source was closed to placements before the drain started, so
		// place can only offer other backends.
		tgt, trs, err := gw.place(ps, cut)
		switch {
		case errors.Is(err, errNoBackend):
			return abort(fmt.Errorf("cluster: session %q: no live backend to migrate onto", ps.id))
		case err != nil:
			return abort(fmt.Errorf("cluster: session %q: migration target refused attach: %w", ps.id, err))
		}
		// dropTarget abandons the half-caught-up target session on a path
		// where the target itself is healthy (terminal aborts); a dead
		// target is handled by eject instead.
		dropTarget := func() {
			trs.Detach()
			if !tgt.isEjected() {
				gw.fleet.ring.Release(tgt.id)
			}
		}

		// Replay the recorded history [0, cut) into the target. Chunks are
		// raw batch payloads: fetched once from the source, re-addressed in
		// place and forwarded — the gateway never decodes a tuple.
		var replayed uint64
		for replayed < cut {
			select {
			case <-gw.quit:
				dropTarget()
				return abort(fmt.Errorf("cluster: session %q: migration aborted by shutdown", ps.id))
			default:
			}
			payload, err := srcRS.MigrateFetch(replayed)
			if err != nil {
				dropTarget()
				if refused(err) {
					return abort(fmt.Errorf("cluster: session %q: migrate-state refused: %w", ps.id, err))
				}
				return sourceDied(err)
			}
			if len(payload) == 0 {
				// MigrateBegin verified recorded == admitted, so running dry
				// short of the cut is a history corruption — surface it, do
				// not commit a short state.
				dropTarget()
				return abort(fmt.Errorf("cluster: session %q: history ended at tuple %d, cut ordinal is %d", ps.id, replayed, cut))
			}
			n, err := tgt.cl.ProxyBatch(trs.Handle(), payload)
			if err != nil {
				// Target died mid-catch-up: nothing committed, the source is
				// still sealed with its full history — restart on a fresh
				// target from ordinal 0 (the source rewinds its cursor).
				gw.eject(tgt, ps)
				continue Target
			}
			replayed += uint64(n)
		}
		if cut > 0 {
			if _, err := trs.MigrateCommit(cut); err != nil {
				if refused(err) {
					dropTarget()
					return abort(fmt.Errorf("cluster: session %q: migrate-commit refused by target %s: %w", ps.id, tgt.id, err))
				}
				gw.eject(tgt, ps)
				continue Target
			}
		}
		// The target now holds the session's exact state at the cut: flip.
		// The target was muted until the commit and sees no tuple until
		// ps.mu is released, so it pushes nothing yet.
		if !gw.bind(ps, tgt, trs, cut) {
			continue Target // it died since the commit; same as dying before it
		}
		gw.migratedTuples.Add(cut)
		// Detach the source before the session unpauses: the wire ordering
		// contract relays every source detection to the front before the
		// detach ack, so nothing the source produced can be lost or
		// reordered behind target pushes. A detach failure means the source
		// died after the commit — the state is safely on the target.
		if _, err := srcRS.Detach(); err != nil && !src.isEjected() {
			gw.log.Warn("migration source detach failed; state already committed on target",
				obs.F("backend", src.id), obs.F("session", ps.id), obs.F("err", err.Error()))
		}
		return nil
	}
}
