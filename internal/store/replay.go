package store

import (
	"io"
	"time"

	"gesturecep/internal/stream"
)

// ReplayOptions tunes playback speed.
type ReplayOptions struct {
	// Speed scales event time to wall-clock time: 1 replays at the
	// original rate, 2 at double speed, 0 (the default) as fast as the
	// sink accepts. Pacing is drift-free — each tuple is scheduled against
	// the first delivered tuple, not the previous one, so sleep jitter
	// does not accumulate; and the clock anchors at first delivery, so
	// time spent seeking or skipping to Offset never eats the schedule.
	Speed float64
	// Offset skips the first Offset tuples of the recording before any is
	// delivered to the sink. Together with Limit this gives ordinal-bounded
	// replay [Offset, Offset+Limit) — the window a migration catch-up or a
	// resumed backfill reads. The sparse segment index positions the reader
	// near the offset in O(log) where one exists; skipped tuples are not
	// counted, paced or reported either way, and the delivered sequence is
	// byte-identical to a full scan.
	Offset uint64
	// Limit stops the replay after this many tuples (0 = all).
	Limit uint64
	// Progress, when non-nil, is called once per replayed record with the
	// cumulative tuple count — the admin plane's replay-throughput gauge
	// source. Called on the replaying goroutine; keep it fast.
	Progress func(tuples uint64)
}

// ReplayStats reports what a replay delivered. Duration and EventSpan are
// populated on every return path, including sink and reader errors
// mid-replay.
type ReplayStats struct {
	// Records counts fully delivered records: a record Limit cuts short
	// (or that the sink aborted inside) is not counted even though some
	// of its tuples were.
	Records  uint64
	Tuples   uint64
	Duration time.Duration
	// EventSpan is the event-time distance between the first and last
	// replayed tuple.
	EventSpan time.Duration
}

// testHookReplayPositioned, when non-nil, runs after the reader has been
// positioned at Offset and before the first tuple is delivered — it lets
// tests inject a slow skip phase and pin that pacing anchors at first
// delivery rather than at entry.
var testHookReplayPositioned func()

// Replay streams a recorded history into sink in record order. The sink is
// called on the calling goroutine; an error from it aborts the replay. A
// serving session's FeedTuple is a sink: flushed afterwards, the session
// detects byte-identically to the original run.
func Replay(r *Reader, sink func(stream.Tuple) error, opts ReplayOptions) (stats ReplayStats, err error) {
	begin := time.Now()
	var wallStart time.Time // pacing anchor: set when the first tuple is delivered
	var eventStart, eventLast time.Time
	first := true
	defer func() {
		// Finalize on every return path — an aborted replay still reports
		// how long it ran and how much event time it covered.
		stats.Duration = time.Since(begin)
		if !first {
			stats.EventSpan = eventLast.Sub(eventStart)
		}
	}()
	skip := opts.Offset
	if skip > 0 {
		// The sparse index jumps to the nearest record boundary at or
		// before the offset; the remainder is skipped tuple by tuple below.
		rem, serr := r.SeekTuple(skip)
		if serr != nil {
			return stats, serr
		}
		skip = rem
	}
	if testHookReplayPositioned != nil {
		testHookReplayPositioned()
	}
	for {
		tuples, rerr := r.Next()
		if rerr == io.EOF {
			return stats, nil
		}
		if rerr != nil {
			return stats, rerr
		}
		if skip >= uint64(len(tuples)) {
			skip -= uint64(len(tuples))
			continue
		}
		tuples = tuples[skip:]
		skip = 0
		for i := range tuples {
			t := tuples[i]
			if first {
				eventStart, eventLast = t.Ts, t.Ts
				// Anchor pacing here, not at entry: however long the seek
				// or the skip scan took, the first delivered tuple starts
				// the schedule at zero instead of bursting a backlog.
				wallStart = time.Now()
				first = false
			} else if t.Ts.After(eventLast) {
				eventLast = t.Ts
			}
			if opts.Speed > 0 {
				target := wallStart.Add(time.Duration(float64(t.Ts.Sub(eventStart)) / opts.Speed))
				if d := time.Until(target); d > 0 {
					time.Sleep(d)
				}
			}
			if err := sink(t); err != nil {
				return stats, err
			}
			stats.Tuples++
			if opts.Limit > 0 && stats.Tuples >= opts.Limit {
				if i == len(tuples)-1 {
					// The limit landed exactly on a record boundary; a cut
					// mid-record leaves the record partially delivered and
					// uncounted.
					stats.Records++
				}
				if opts.Progress != nil {
					opts.Progress(stats.Tuples)
				}
				return stats, nil
			}
		}
		stats.Records++
		if opts.Progress != nil {
			opts.Progress(stats.Tuples)
		}
	}
}
