package store

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

func testTime() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

var (
	learnOnce  sync.Once
	learnedTxt string
	learnErr   error
)

// swipeQuery learns swipe_right once per test binary.
func swipeQuery(t testing.TB) string {
	t.Helper()
	learnOnce.Do(func() {
		sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
		if err != nil {
			learnErr = err
			return
		}
		samples, err := sim.Samples(kinect.StandardGestures()[kinect.GestureSwipeRight], 4,
			testTime(), kinect.PerformOpts{PathJitter: 25})
		if err != nil {
			learnErr = err
			return
		}
		res, err := learn.Learn("swipe_right", samples, learn.DefaultConfig())
		if err != nil {
			learnErr = err
			return
		}
		learnedTxt = res.QueryText
	})
	if learnErr != nil {
		t.Fatal(learnErr)
	}
	return learnedTxt
}

// playbackFrames synthesizes a session with two swipes and a distractor.
func playbackFrames(t testing.TB, seed int64) []kinect.Frame {
	t.Helper()
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), seed)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := player.RunScript([]kinect.ScriptItem{
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GestureCircle},
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: 500 * time.Millisecond},
	}, testTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sess.Frames
}

// synthTuples builds deterministic 3-field tuples with UTC timestamps (the
// codec re-stamps times in UTC, so UTC inputs round-trip exactly).
func synthTuples(n int) []stream.Tuple {
	base := testTime()
	out := make([]stream.Tuple, n)
	for i := range out {
		out[i] = stream.Tuple{
			Ts:     base.Add(time.Duration(i) * 33 * time.Millisecond),
			Seq:    uint64(i + 1),
			Fields: []float64{float64(i), float64(i) * 0.5, -float64(i)},
		}
	}
	return out
}

var synthSchema = stream.MustSchema("a", "b", "c")

func tuplesEqual(t *testing.T, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d tuples, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Ts.Equal(w.Ts) || g.Seq != w.Seq || len(g.Fields) != len(w.Fields) {
			t.Fatalf("tuple %d: got %+v, want %+v", i, g, w)
		}
		for j := range g.Fields {
			if g.Fields[j] != w.Fields[j] {
				t.Fatalf("tuple %d field %d: got %v, want %v", i, j, g.Fields[j], w.Fields[j])
			}
		}
	}
}

// TestWriteReadRoundTrip appends across several segment rolls and expects
// ReadAll to return the identical tuple sequence, then resumes the stream
// with Open and appends more.
func TestWriteReadRoundTrip(t *testing.T) {
	root := t.TempDir()
	opts := Options{SegmentBytes: 2048, BatchTuples: 7}
	w, err := Create(root, "s1", synthSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	tuples := synthTuples(500)
	for _, tu := range tuples[:400] {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(StreamDir(root, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments at a 2 KiB roll threshold, got %d", len(segs))
	}

	got, err := ReadAll(root, "s1")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples[:400])

	// Resume and append the rest.
	w2, err := Open(root, "s1", opts)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Recovered().Repaired() {
		t.Fatalf("clean stream reported recovery: %+v", w2.Recovered())
	}
	for _, tu := range tuples[400:] {
		if err := w2.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(root, "s1")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples)

	names, err := ListStreams(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "s1" {
		t.Fatalf("ListStreams = %v", names)
	}
}

// lastSegment returns the path of the stream's highest-index segment.
func lastSegment(t *testing.T, root, name string) string {
	t.Helper()
	segs, err := listSegments(StreamDir(root, name))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return segmentPath(StreamDir(root, name), segs[len(segs)-1])
}

// TestCrashRecoveryTornTail simulates a crash mid-record-write: the torn
// tail must be detected via CRC, the reader must stop cleanly at the last
// valid record, Open must truncate the tail, and recording must resume
// with the record ordinals intact.
func TestCrashRecoveryTornTail(t *testing.T) {
	root := t.TempDir()
	opts := Options{SegmentBytes: 1 << 20, BatchTuples: 10}
	w, err := Create(root, "crash", synthSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	tuples := synthTuples(100)
	for _, tu := range tuples[:60] {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop 5 bytes off the last record.
	path := lastSegment(t, root, "crash")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	// The reader must deliver exactly the valid prefix (50 tuples: the
	// torn record held the last 10) and then end cleanly.
	got, err := ReadAll(root, "crash")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples[:50])

	// Open must repair the tail and resume appending.
	w2, err := Open(root, "crash", opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := w2.Recovered()
	if rec.TruncatedBytes == 0 {
		t.Fatal("expected a truncated tail to be reported")
	}
	if got := w2.Records(); got != 5 {
		t.Fatalf("recovered writer at record %d, want 5", got)
	}
	for _, tu := range tuples[50:] {
		if err := w2.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(root, "crash")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples)
}

// TestCrashRecoveryCorruptTail flips a byte inside the last record (same
// size, wrong CRC) and expects the identical repair path.
func TestCrashRecoveryCorruptTail(t *testing.T) {
	root := t.TempDir()
	opts := Options{SegmentBytes: 1 << 20, BatchTuples: 10}
	w, err := Create(root, "flip", synthSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	tuples := synthTuples(40)
	for _, tu := range tuples {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	path := lastSegment(t, root, "flip")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := ReadAll(root, "flip")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples[:30])

	w2, err := Open(root, "flip", opts)
	if err != nil {
		t.Fatal(err)
	}
	if !w2.Recovered().Repaired() {
		t.Fatal("expected recovery to repair the corrupt tail record")
	}
	if err := w2.Append(tuples[30]); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadAll(root, "flip")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples[:31])
}

// TestMidFileCorruptionIsAnError flips a byte in an early record with
// valid history behind it: the reader must surface an error (never
// silently skip records), and Open must refuse to truncate valid history
// away.
func TestMidFileCorruptionIsAnError(t *testing.T) {
	root := t.TempDir()
	opts := Options{SegmentBytes: 1 << 20, BatchTuples: 10}
	w, err := Create(root, "mid", synthSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range synthTuples(50) { // 5 records
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := lastSegment(t, root, "mid")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderBytes+recHeaderBytes+20] ^= 0xff // inside record 0's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(root, "mid"); err == nil {
		t.Fatal("reader silently skipped mid-file corruption")
	}
	if _, err := Open(root, "mid", opts); err == nil {
		t.Fatal("Open truncated away valid history behind mid-file corruption")
	}
}

// TestCrashRecoveryZeroFilledTail simulates a crash into preallocated
// (zero-filled) file space: the zeroed region ends the stream cleanly and
// Open repairs it.
func TestCrashRecoveryZeroFilledTail(t *testing.T) {
	root := t.TempDir()
	opts := Options{SegmentBytes: 1 << 20, BatchTuples: 10}
	w, err := Create(root, "zeros", synthSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	tuples := synthTuples(30)
	for _, tu := range tuples {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(lastSegment(t, root, "zeros"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := ReadAll(root, "zeros")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples)

	w2, err := Open(root, "zeros", opts)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Recovered().TruncatedBytes != 256 {
		t.Fatalf("TruncatedBytes = %d, want 256", w2.Recovered().TruncatedBytes)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryTornHeader covers a crash between sealing a segment and
// writing the next one's header: the unusable tail file is discarded and
// appending resumes on the previous segment.
func TestCrashRecoveryTornHeader(t *testing.T) {
	root := t.TempDir()
	opts := Options{SegmentBytes: 1 << 20, BatchTuples: 10}
	w, err := Create(root, "hdr", synthSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	tuples := synthTuples(20)
	for _, tu := range tuples {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// A torn header: 7 stray bytes where segment 2 should begin.
	torn := segmentPath(StreamDir(root, "hdr"), 2)
	if err := os.WriteFile(torn, []byte("GSEG\x01\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(root, "hdr", opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.Recovered().RemovedSegments; got != 1 {
		t.Fatalf("RemovedSegments = %d, want 1", got)
	}
	if got := w2.Records(); got != 2 {
		t.Fatalf("recovered writer at record %d, want 2", got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(root, "hdr")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, tuples)
}

// encodeDets canonicalizes detections to wire bytes for byte-identical
// comparison across code paths.
func encodeDets(t testing.TB, dets []anduin.Detection) []byte {
	t.Helper()
	buf, err := wire.AppendDetections(nil, 0, 0, dets)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestDeterminismRecordReplayBackfill is the acceptance criterion: a live
// served session is recorded through a tap; replaying the recording
// through a fresh serve.Manager session and backfilling the plan over the
// recorded history must both yield byte-identical detections.
func TestDeterminismRecordReplayBackfill(t *testing.T) {
	qtext := swipeQuery(t)
	frames := playbackFrames(t, 7)
	root := t.TempDir()

	reg := serve.NewRegistry()
	if _, err := reg.Register("swipe_right", qtext); err != nil {
		t.Fatal(err)
	}

	// Live run, recorded via the tap. A small segment threshold forces the
	// recording across several segments.
	wtr, err := Create(root, "live", kinect.Schema(), Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(wtr, 0)
	m1, err := serve.NewManager(serve.Config{Shards: 4}, reg)
	if err != nil {
		t.Fatal(err)
	}
	sess1, err := m1.CreateSessionWith("user-1", serve.SessionOptions{Tap: rec.Tap()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range kinect.ToTuples(frames) {
		if err := sess1.FeedTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	sess1.Flush()
	live := sess1.Detections()
	m1.Close()
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("live session detected nothing; expected at least one swipe_right")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d tuples on an idle test box", rec.Dropped())
	}
	if rec.Recorded() != uint64(len(frames)) {
		t.Fatalf("recorded %d tuples, fed %d frames", rec.Recorded(), len(frames))
	}

	// Replay through a fresh manager session.
	m2, err := serve.NewManager(serve.Config{Shards: 2}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	sess2, err := m2.CreateSession("replay-1")
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(root, "live")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Replay(r, sess2.FeedTuple, ReplayOptions{})
	sess2.Flush()
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != uint64(len(frames)) {
		t.Fatalf("replayed %d tuples, recorded %d", stats.Tuples, len(frames))
	}
	replayed := sess2.Detections()

	// Backfill the same plan over the same history offline.
	plan, _ := reg.Get("swipe_right")
	r2, err := OpenReader(root, "live")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	backfilled, err := Backfill(r2, []*anduin.Plan{plan}, BackfillOptions{})
	if err != nil {
		t.Fatal(err)
	}

	liveB, replayB, backB := encodeDets(t, live), encodeDets(t, replayed), encodeDets(t, backfilled)
	if !bytes.Equal(liveB, replayB) {
		t.Errorf("replayed detections diverge from live run:\nlive:   %+v\nreplay: %+v", live, replayed)
	}
	if !bytes.Equal(liveB, backB) {
		t.Errorf("backfilled detections diverge from live run:\nlive:     %+v\nbackfill: %+v", live, backfilled)
	}
}

// TestRecordOverWire — the full production recording path over the network
// — lives in e2e_test.go on top of the shared internal/e2e harness.

// TestRecorderDropAccounting checks the never-block contract: taps on a
// closed recorder drop (and count) instead of blocking or panicking.
func TestRecorderDropAccounting(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "drops", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 8)
	tap := rec.Tap()
	tuples := synthTuples(16)
	for _, tu := range tuples {
		tap(tu)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		tap(tu) // after Close: must not block, must count
	}
	if got := rec.Dropped(); got < uint64(len(tuples)) {
		t.Fatalf("Dropped = %d, want at least %d post-close drops", got, len(tuples))
	}
	if rec.Recorded()+rec.Dropped() != uint64(2*len(tuples)) {
		t.Fatalf("accounting mismatch: recorded %d + dropped %d != tapped %d",
			rec.Recorded(), rec.Dropped(), 2*len(tuples))
	}
	got, err := ReadAll(root, "drops")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != rec.Recorded() {
		t.Fatalf("stream holds %d tuples, recorder claims %d", len(got), rec.Recorded())
	}
}

// TestArchiveNameCollision expects a reused session ID to land in a
// suffixed stream rather than clobbering or failing.
func TestArchiveNameCollision(t *testing.T) {
	root := t.TempDir()
	arch := NewArchive(root, synthSchema, Options{}, 0)
	r1, err := arch.Record("user")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := arch.Record("user")
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stream() == r2.Stream() {
		t.Fatalf("collision not resolved: both recorders write %q", r1.Stream())
	}
	if err := arch.Release(r1); err != nil {
		t.Fatal(err)
	}
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := ListStreams(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("ListStreams = %v, want 2 streams", names)
	}
}

// TestHostileStreamNames checks that adversarial session IDs cannot escape
// the archive root.
func TestHostileStreamNames(t *testing.T) {
	root := t.TempDir()
	for _, name := range []string{"../escape", "a/b", "..", ".", "ü", "x y"} {
		dir := StreamDir(root, name)
		rel, err := filepath.Rel(root, dir)
		if err != nil || rel == ".." || rel == "." || strings.ContainsRune(rel, filepath.Separator) {
			t.Fatalf("name %q maps outside the root: %q", name, dir)
		}
		w, err := Create(root, name, synthSchema, Options{})
		if err != nil {
			t.Fatalf("Create(%q): %v", name, err)
		}
		if err := w.Append(synthTuples(1)[0]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAll(root, name)
		if err != nil || len(got) != 1 {
			t.Fatalf("ReadAll(%q): %d tuples, err %v", name, len(got), err)
		}
	}
}

// TestReplayLimitAndPacing exercises the tuple limit and checks that a
// paced replay takes at least roughly the scaled event span.
func TestReplayLimitAndPacing(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "pace", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuples := synthTuples(60) // 33 ms apart → ~1.95 s event span
	for _, tu := range tuples {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(root, "pace")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	stats, err := Replay(r, func(stream.Tuple) error { n++; return nil }, ReplayOptions{Limit: 25})
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 || stats.Tuples != 25 {
		t.Fatalf("limit ignored: sink saw %d, stats %d", n, stats.Tuples)
	}

	// 20× speed over a ~1.95 s span should take ≥ ~90 ms of wall clock.
	r2, err := OpenReader(root, "pace")
	if err != nil {
		t.Fatal(err)
	}
	stats, err = Replay(r2, func(stream.Tuple) error { return nil }, ReplayOptions{Speed: 20})
	r2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := stats.EventSpan / 20; stats.Duration < want-20*time.Millisecond {
		t.Fatalf("paced replay took %v, want at least about %v", stats.Duration, want)
	}
}
