package store

import (
	"errors"
	"math"
	"strings"
	"testing"

	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// TestRecorderKeepsTheBytes: the tap is lent each tuple for the call only,
// and the drain goroutine writes it out later — from the encoding the tap
// made during the loan, not from the tuple. Every batch's field arrays are
// scribbled over as soon as the session has published them — the way a
// recycled decode buffer is reused — and the recording must still hold the
// original bytes.
func TestRecorderKeepsTheBytes(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "lent", kinect.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 0)
	reg := serve.NewRegistry()
	if _, err := reg.Register("swipe_right", swipeQuery(t)); err != nil {
		t.Fatal(err)
	}
	m, err := serve.NewManager(serve.Config{Shards: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sess, err := m.CreateSessionWith("user-1", serve.SessionOptions{Tap: rec.Tap()})
	if err != nil {
		t.Fatal(err)
	}

	want := kinect.ToTuples(playbackFrames(t, 7))
	for off := 0; off < len(want); off += 64 {
		batch := make([]stream.Tuple, 0, 64)
		for _, tu := range want[off:min(off+64, len(want))] {
			batch = append(batch, tu.Clone())
		}
		if err := sess.FeedBatch(batch, 0); err != nil {
			t.Fatal(err)
		}
		sess.Flush() // published: the queue is done with the batch
		for _, tu := range batch {
			for k := range tu.Fields {
				tu.Fields[k] = math.NaN()
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() != uint64(len(want)) || rec.Dropped() != 0 {
		t.Fatalf("recorded %d, dropped %d of %d tapped", rec.Recorded(), rec.Dropped(), len(want))
	}
	got, err := ReadAll(root, "lent")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, want)
}

// TestDroppingRecorderDoesNotCopy: a tap that is going to drop the tuple —
// buffer full, writer failed, recorder closed — decides so before it encodes,
// so a recorder that has fallen behind costs the feed path neither a copy nor
// an allocation; and every tap call is still counted, recorded or dropped.
func TestDroppingRecorderDoesNotCopy(t *testing.T) {
	tu := synthTuples(1)[0]
	const runs = 100 // AllocsPerRun adds one warm-up call
	dropsFree := func(name string, rec *Recorder) {
		t.Helper()
		tap := rec.Tap()
		before := rec.Dropped()
		if allocs := testing.AllocsPerRun(runs, func() { tap(tu) }); allocs != 0 {
			t.Errorf("%s: a dropping tap allocates %g times per tuple, want 0", name, allocs)
		}
		if got := rec.Dropped() - before; got != runs+1 {
			t.Errorf("%s: %d of %d taps counted dropped", name, got, runs+1)
		}
	}

	// No drain goroutine: the backlog fills and stays full.
	stuck := &Recorder{limit: 2, fields: len(tu.Fields)}
	stuck.Tap()(tu)
	stuck.Tap()(tu)
	if want := 2 * tupleBytes(len(tu.Fields)); len(stuck.pending) != want {
		t.Fatalf("backlog holds %d bytes, want the %d of 2 tapped tuples", len(stuck.pending), want)
	}
	dropsFree("full buffer", stuck)
	if want := 2 * tupleBytes(len(tu.Fields)); len(stuck.pending) != want {
		t.Fatalf("dropping taps left %d bytes queued, want %d", len(stuck.pending), want)
	}

	w, err := Create(t.TempDir(), "drops", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 8)
	for range 3 {
		rec.Tap()(tu)
	}
	if err := rec.Sync(); err != nil {
		t.Fatal(err)
	}
	broke := errors.New("disk gone")
	rec.fail(broke)
	dropsFree("failed writer", rec)
	if err := rec.Close(); !errors.Is(err, broke) {
		t.Fatalf("Close = %v, want the writer's error", err)
	}
	dropsFree("closed recorder", rec)
	if taps := uint64(3 + 2*(runs+1)); rec.Recorded() != 3 || rec.Recorded()+rec.Dropped() != taps {
		t.Errorf("recorded %d + dropped %d, want 3 recorded of %d tap calls", rec.Recorded(), rec.Dropped(), taps)
	}
}

// TestRecorderRidesOutAStalledWriter: while the disk does not take a write,
// taps queue up to the buffer bound — exactly, counting the tuples the drain
// already holds — and drop past it; when the disk comes back everything
// queued is written, in order.
func TestRecorderRidesOutAStalledWriter(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "stall", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 8)
	tuples := synthTuples(20)
	w.mu.Lock() // the drain's next Append waits here, as on a stalled disk
	tap := rec.Tap()
	for _, tu := range tuples {
		tap(tu)
	}
	if got := rec.Dropped(); got != 12 {
		t.Errorf("dropped %d of 20 taps against a stalled writer and a buffer of 8, want 12", got)
	}
	w.mu.Unlock()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Recorded() != 8 || rec.Dropped() != 12 {
		t.Fatalf("recorded %d, dropped %d, want 8 and 12", rec.Recorded(), rec.Dropped())
	}
	got, err := ReadAll(root, "stall")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples[:8])
}

// TestRecorderRefusesAWrongWidth: a tuple that is not the stream's width ends
// the recording with the error Writer.Append gives it — the tap cannot encode
// it into a backlog of fixed-size bodies — and it and everything after it
// count as dropped.
func TestRecorderRefusesAWrongWidth(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "narrow", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 8)
	tap := rec.Tap()
	good := synthTuples(2)
	tap(good[0])
	tap(stream.Tuple{Ts: testTime(), Fields: []float64{1}})
	tap(good[1])
	if err := rec.Close(); err == nil || !strings.Contains(err.Error(), "tuple has 1 fields") {
		t.Fatalf("Close = %v, want the width error", err)
	}
	if rec.Recorded() != 1 || rec.Dropped() != 2 {
		t.Errorf("recorded %d, dropped %d of 3 taps, want 1 and 2", rec.Recorded(), rec.Dropped())
	}
	got, err := ReadAll(root, "narrow")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, good[:1])
}
