package store

import (
	"io"
	"testing"

	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// readAllTuples drains a reader to EOF and closes it.
func readAllTuples(t *testing.T, r *Reader) []stream.Tuple {
	t.Helper()
	var out []stream.Tuple
	for {
		tuples, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tuples...)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSyncMidStreamReadback pins the migration-source contract: Sync drains
// the tap backlog and flushes the segment so an independent reader sees
// every recorded tuple while the recorder stays live — the recording is
// readable at the migration cut without closing the session, and Recorded()
// is the exact cut ordinal the reader's contents match.
func TestSyncMidStreamReadback(t *testing.T) {
	arch := NewArchive(t.TempDir(), synthSchema, Options{}, 0)
	defer arch.Close()
	tuples := synthTuples(96)
	rec, err := arch.Record("live")
	if err != nil {
		t.Fatal(err)
	}
	tap := rec.Tap()
	for _, tp := range tuples[:64] {
		tap(tp)
	}
	if err := rec.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Recorded(); got != 64 {
		t.Fatalf("Recorded() = %d after sync, want 64", got)
	}
	r, err := OpenReader(arch.root, rec.Stream())
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, readAllTuples(t, r), tuples[:64])

	// The recorder keeps accepting tuples after the mid-stream read — a
	// second sync exposes the longer prefix to a fresh reader.
	for _, tp := range tuples[64:] {
		tap(tp)
	}
	if err := rec.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Recorded(); got != 96 {
		t.Fatalf("Recorded() = %d after second sync, want 96", got)
	}
	r, err = OpenReader(arch.root, rec.Stream())
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, readAllTuples(t, r), tuples)
	if err := arch.Release(rec); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRecordingHistory pins what a migration reads: a session's
// recording reads back its own stream through History, with its own count,
// even when a collision gave the stream a numeric suffix — a second
// recording of one name reads back <name>.2 — and a recording whose attach
// failed leaves no stream behind.
func TestSessionRecordingHistory(t *testing.T) {
	arch := NewArchive(t.TempDir(), synthSchema, Options{}, 0)
	defer arch.Close()
	tuples := synthTuples(48)
	first, err := arch.RecordSession("sess")
	if err != nil {
		t.Fatal(err)
	}
	second, err := arch.RecordSession("sess")
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range []struct {
		rec    wire.Recording
		stream string
		want   []stream.Tuple
	}{
		{first, "sess", tuples[:16]},
		{second, "sess.2", tuples[16:]},
	} {
		rc.rec.TapBodies(appendBodies(nil, rc.want), synthSchema.Len())
		hr, recorded, err := rc.rec.History()
		if err != nil {
			t.Fatal(err)
		}
		r := hr.(*Reader)
		if got := r.Manifest().Stream; got != rc.stream {
			t.Errorf("History reads stream %q, want %q", got, rc.stream)
		}
		if recorded != uint64(len(rc.want)) {
			t.Errorf("%s: History counts %d recorded tuples, want %d", rc.stream, recorded, len(rc.want))
		}
		tuplesEqual(t, readAllTuples(t, r), rc.want)
	}
	second.End(false)
	first.End(false)

	third, err := arch.RecordSession("sess")
	if err != nil {
		t.Fatal(err)
	}
	third.End(true)
	if Exists(arch.root, "sess.3") {
		t.Error("an aborted recording left its stream behind")
	}
	if n := arch.endErrors.Load(); n != 0 {
		t.Errorf("%d recordings failed to end", n)
	}
}

// TestReplayOffset pins the catch-up window a migration target consumes:
// Offset skips exactly that many tuples, composes with Limit into an
// ordinal-bounded slice, and an Offset at or past the end replays nothing
// without error.
func TestReplayOffset(t *testing.T) {
	root := t.TempDir()
	tuples := synthTuples(40)
	w, err := Create(root, "stream", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples {
		if err := w.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name          string
		offset, limit int
		lo, hi        int // expected window into tuples
	}{
		{"skip-prefix", 15, 0, 15, 40},
		{"offset-plus-limit", 10, 5, 10, 15},
		{"offset-at-end", 40, 0, 40, 40},
		{"offset-past-end", 100, 0, 40, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := OpenReader(root, "stream")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			var got []stream.Tuple
			stats, err := Replay(r, func(tp stream.Tuple) error {
				got = append(got, tp)
				return nil
			}, ReplayOptions{Offset: uint64(tc.offset), Limit: uint64(tc.limit)})
			if err != nil {
				t.Fatal(err)
			}
			tuplesEqual(t, got, tuples[tc.lo:tc.hi])
			if stats.Tuples != uint64(tc.hi-tc.lo) {
				t.Errorf("stats.Tuples = %d, want %d", stats.Tuples, tc.hi-tc.lo)
			}
		})
	}
}
