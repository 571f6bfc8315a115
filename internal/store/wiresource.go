package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/wire"
)

// backfillEmitChunk is how many detections a wire backfill source buffers
// before pushing a frame — one full FrameBackfillDet per flush.
const backfillEmitChunk = wire.MaxDetections

// NewWireBackfillSource adapts an archive to the wire protocol's backfill
// handler (wire.Server.BackfillSource). resolve maps plan names to plans:
// pass the server registry's Resolve, for which no names means every
// registered plan. open opens a stream: pass Archive.OpenReader so
// evaluation holds the compaction read-lock, or a closure over the
// package-level OpenReader for an archive nothing compacts. A stream the
// archive does not hold is reported as wire.ErrUnknownStream, which the
// protocol surfaces in BackfillReply.Missing instead of failing the request
// — the fleet coordinator's cue to retry the stream on the backend that
// recorded it.
func NewWireBackfillSource(resolve func(names ...string) ([]*anduin.Plan, error),
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
