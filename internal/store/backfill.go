package store

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/transform"
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
// the reader (Reader.Lend) and published while the loan lasts; nothing is
// allocated per tuple.
func Backfill(r *Reader, plans []*anduin.Plan, opts BackfillOptions) ([]anduin.Detection, error) {
	return backfill(context.Background(), r, plans, opts)
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
		for i := range tuples {
			if !opts.Since.IsZero() && tuples[i].Ts.Before(opts.Since) {
				continue
			}
			if !opts.Until.IsZero() && !tuples[i].Ts.Before(opts.Until) {
				continue
			}
			if err := raw.Publish(tuples[i]); err != nil {
				return dets, err
			}
		}
	}
}

// BackfillStreams evaluates plans over several recorded streams, each in
// its own private engine (streams are independent sessions; their
// histories never interleave), and returns the detections grouped per
// stream in sorted stream-name order. This is the single-node baseline a
// fleet-parallel backfill must merge back to byte for byte: the fleet
// partitions the same sorted stream list across backends, each stream is
// still evaluated by exactly this function's per-stream path, and the
// merge concatenates the groups in the same order.
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
