package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/transform"
	"gesturecep/internal/wire"
)

// BackfillOptions tunes offline evaluation.
type BackfillOptions struct {
	// OnDetection, when non-nil, streams each detection out as it fires,
	// in order, on the calling goroutine.
	OnDetection func(anduin.Detection)
	// Discard skips collecting detections in the returned slice — set it
	// together with OnDetection when backfilling a history too large to
	// hold its detections in memory.
	Discard bool
	// Since and Until bound evaluation to tuples with event time in
	// [Since, Until); zero values leave that side unbounded. Since uses
	// the sparse segment index to open near the window instead of
	// scanning from the start, and evaluation stops at the first record
	// that begins at or past Until — for the record-monotonic streams
	// live recording produces, exactly the window's tuples are evaluated.
	Since, Until time.Time
}

// Backfill evaluates compiled plans over a recorded history offline: it
// builds a private engine with the standard kinect pipeline (the default
// transform, as every serving session has), deploys the plans, and publishes every recorded tuple through it in order — the
// lambda-style batch path over the same code the live path runs, so a
// plan backfilled over a recorded session produces exactly the detections
// a live session deploying it would have produced. Records are borrowed from
// the reader (Reader.Lend) and published while the loan lasts, decoded only
// for the raw fields the plans and the transform read; nothing is allocated
// per tuple.
func Backfill(r *Reader, plans []*anduin.Plan, opts BackfillOptions) ([]anduin.Detection, error) {
	return backfill(context.Background(), r, plans, opts)
}

// Backfill evaluates plans over the recorded stream name within the
// event-time window [since, until) (a zero bound leaves that side open) and
// returns its detections with the records and tuples read — the wire
// server's backfill (wire.Archive). A stream the archive does not hold is
// wire.ErrUnknownStream. The reader holds the compaction read lock, and
// evaluation stops at the next record once ctx is done.
func (a *Archive) Backfill(ctx context.Context, name string, plans []*anduin.Plan, since, until time.Time) ([]anduin.Detection, uint64, uint64, error) {
	r, err := a.OpenReader(name)
	if errors.Is(err, os.ErrNotExist) {
		err = fmt.Errorf("stream %q: %w", name, wire.ErrUnknownStream)
	}
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.Close()
	dets, err := backfill(ctx, r, plans, BackfillOptions{Since: since, Until: until})
	records, tuples := r.Counters()
	return dets, records, tuples, err
}

// backfill is Backfill for a caller that may stop listening: once ctx is
// done, evaluation stops before the next record and ctx's error is returned.
func backfill(ctx context.Context, r *Reader, plans []*anduin.Plan, opts BackfillOptions) ([]anduin.Detection, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("store: backfill needs at least one plan")
	}
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	defer engine.UndeployAll()
	if r.Fields() != raw.Schema().Len() {
		return nil, fmt.Errorf("store: stream %q is %d fields wide, the kinect pipeline expects %d",
			r.Manifest().Stream, r.Fields(), raw.Schema().Len())
	}
	var dets []anduin.Detection
	engine.Subscribe(func(d anduin.Detection) {
		if !opts.Discard {
			dets = append(dets, d)
		}
		if opts.OnDetection != nil {
			opts.OnDetection(d)
		}
	})
	for _, p := range plans {
		if _, err := engine.DeployPlan(p); err != nil {
			return nil, err
		}
	}
	// Every plan is deployed, so the raw read set is final: only those
	// fields of each record are decoded, as a live session decodes only
	// those of a batch.
	r.reads = raw.Reads()
	defer func() { r.reads = nil }()
	if !opts.Since.IsZero() {
		if err := r.SeekTime(opts.Since); err != nil {
			return dets, err
		}
	}
	for {
		if err := ctx.Err(); err != nil {
			return dets, err
		}
		tuples, err := r.Lend()
		if err == io.EOF {
			return dets, nil
		}
		if err != nil {
			return dets, err
		}
		if !opts.Until.IsZero() && len(tuples) > 0 && !tuples[0].Ts.Before(opts.Until) {
			// The record starts at or past the window's end; recorded
			// streams are record-monotonic, so nothing later can precede
			// Until either.
			return dets, nil
		}
		// The record goes to the engine as one batch, or as one batch per
		// run of consecutive tuples inside the window.
		for len(tuples) > 0 {
			n := 0
			for n < len(tuples) && inWindow(tuples[n].Ts, opts) {
				n++
			}
			if n > 0 {
				if err := engine.PublishBatch(raw, tuples[:n], nil); err != nil {
					return dets, err
				}
			}
			for n < len(tuples) && !inWindow(tuples[n].Ts, opts) {
				n++
			}
			tuples = tuples[n:]
		}
	}
}

// inWindow reports whether event time ts lies in [opts.Since, opts.Until).
func inWindow(ts time.Time, opts BackfillOptions) bool {
	return (opts.Since.IsZero() || !ts.Before(opts.Since)) && (opts.Until.IsZero() || ts.Before(opts.Until))
}

// BackfillStreams evaluates plans over several recorded streams, each in
// its own private engine (streams are independent sessions; their
// histories never interleave), and returns the detections grouped per
// stream in sorted stream-name order. This is the single-node baseline a
// fleet-parallel backfill must merge back to byte for byte: every backend
// evaluates the same sorted stream list by this function's per-stream
// path, and the merge concatenates, in the same order, each stream's group
// from its fullest copy.
func BackfillStreams(root string, streams []string, plans []*anduin.Plan, opts BackfillOptions) ([][]anduin.Detection, error) {
	streams = SortStreams(streams)
	out := make([][]anduin.Detection, len(streams))
	for i, name := range streams {
		r, err := OpenReader(root, name)
		if err != nil {
			return nil, fmt.Errorf("store: backfill stream %q: %w", name, err)
		}
		dets, err := Backfill(r, plans, opts)
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("store: backfill stream %q: %w", name, err)
		}
		out[i] = dets
	}
	return out, nil
}

// SortStreams sorts and dedupes a stream-name list in place of the
// caller's slice — the canonical order every backfill (single-node or
// fleet) evaluates and merges in.
func SortStreams(streams []string) []string {
	out := append([]string(nil), streams...)
	sort.Strings(out)
	j := 0
	for i, s := range out {
		if i == 0 || s != out[j-1] {
			out[j] = s
			j++
		}
	}
	return out[:j]
}
