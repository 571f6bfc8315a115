package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// backfillEmitChunk is how many detections a wire backfill source buffers
// before pushing a frame — one full FrameBackfillDet per flush.
const backfillEmitChunk = wire.MaxDetections

// Serve makes the archive srv's recording backend, installing all three of
// the server's recording hooks:
//   - TapSessions records every attached session into a stream of its own
//     (Record), released when the session ends or aborted when its attach
//     failed;
//   - MigrateSource makes the sessions live-migratable: it syncs a
//     session's recorder and reads its stream back, which is what lets a
//     drain move a session with its state;
//   - BackfillSource evaluates the plans resolve returns over the
//     recordings. Pass the server registry's Resolve, for which no names
//     means every registered plan.
//
// Every reader holds the archive's compaction read lock. onErr, if non-nil,
// receives the errors of ending a recording, which happens after the
// session is gone and so has no caller to return them to. Call before srv
// serves.
func (a *Archive) Serve(srv *wire.Server, resolve func(names ...string) ([]*anduin.Plan, error), onErr func(error)) {
	srv.TapSessions = func(id string) (func(stream.Tuple), func(bool), error) {
		rec, err := a.Record(id)
		if err != nil {
			return nil, nil, err
		}
		return rec.Tap(), func(aborted bool) {
			end := a.Release
			if aborted { // the attach failed: drop the never-used recording
				end = a.Abort
			}
			if err := end(rec); err != nil && onErr != nil {
				onErr(fmt.Errorf("recording %q: %w", rec.Stream(), err))
			}
		}, nil
	}
	srv.MigrateSource = func(id string) (wire.HistoryReader, uint64, error) {
		rec, ok := a.LiveRecorder(id)
		if !ok {
			return nil, 0, fmt.Errorf("store: no live recording for session %q", id)
		}
		if err := rec.Sync(); err != nil {
			return nil, 0, err
		}
		r, err := a.OpenReader(rec.Stream())
		if err != nil {
			return nil, 0, err
		}
		return r, rec.Recorded(), nil
	}
	srv.BackfillSource = newWireBackfillSource(resolve, a.OpenReader)
}

// newWireBackfillSource adapts a recording store to the wire protocol's
// backfill handler (wire.Server.BackfillSource). resolve maps plan names
// to plans; open opens a stream. A stream the store does not hold is
// reported as wire.ErrUnknownStream, which the protocol surfaces in
// BackfillReply.Missing instead of failing the request: this backend holds
// no copy of the stream.
func newWireBackfillSource(resolve func(names ...string) ([]*anduin.Plan, error),
	open func(stream string) (*Reader, error)) wire.BackfillFunc {
	return func(ctx context.Context, stream string, gestures []string, since, until time.Time,
		emit func([]anduin.Detection) error) (records, tuples uint64, err error) {
		plans, err := resolve(gestures...)
		if err != nil {
			return 0, 0, err
		}
		r, err := open(stream)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return 0, 0, fmt.Errorf("stream %q: %w", stream, wire.ErrUnknownStream)
			}
			return 0, 0, err
		}
		defer r.Close()
		// Detections buffer into full wire frames. Evaluation stops at the
		// next record once nobody wants the result: the request is over
		// (ctx), or a frame could not be emitted.
		ctx, stop := context.WithCancel(ctx)
		defer stop()
		var pending []anduin.Detection
		var emitErr error
		flush := func() {
			if emitErr != nil || len(pending) == 0 {
				return
			}
			if emitErr = emit(pending); emitErr != nil {
				stop()
			}
			pending = pending[:0]
		}
		_, err = backfill(ctx, r, plans, BackfillOptions{
			Discard: true,
			Since:   since,
			Until:   until,
			OnDetection: func(d anduin.Detection) {
				pending = append(pending, d)
				if len(pending) >= backfillEmitChunk {
					flush()
				}
			},
		})
		records, tuples = r.Counters()
		if emitErr != nil {
			return records, tuples, emitErr
		}
		if err != nil {
			return records, tuples, err
		}
		flush()
		return records, tuples, emitErr
	}
}
