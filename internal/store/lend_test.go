package store

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
)

// TestReaderOwnsAndLends: what Next, ReadAll and Replay hand out is the
// caller's for good — it survives every later read, lent or not, and a
// seek's skip scan — while what Lend hands out is gone by the next read:
// with ended loans poisoned the lent arrays turn to NaN under the borrower
// that kept them, which is the point of the hook.
func TestReaderOwnsAndLends(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)

	root := t.TempDir()
	want := buildStream(t, root, "s", 64, smallSegOpts) // records of 4, many segments
	r, err := OpenReader(root, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	owned, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	lent, err := r.Lend()
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, lent, want[4:8])
	owned2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(lent[0].Fields[0]) {
		t.Errorf("a lent record still reads %v after the next read; the loan was not ended", lent[0].Fields[0])
	}
	if err := r.SeekOrdinal(7); err != nil { // scans one record past an index entry
		t.Fatal(err)
	}
	if _, err := r.Lend(); err != nil {
		t.Fatal(err)
	}
	if err := r.SeekOrdinal(0); err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, owned, want[:4])
	tuplesEqual(t, owned2, want[8:12])

	all, err := ReadAll(root, "s")
	if err != nil {
		t.Fatal(err)
	}
	var kept []stream.Tuple // a sink that keeps what it is given, as a shard queue does
	if _, err := Replay(r, func(tu stream.Tuple) error { kept = append(kept, tu); return nil }, ReplayOptions{Offset: 6}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lend(); err != io.EOF {
		t.Fatalf("Lend at the end of the stream = %v, want io.EOF", err)
	}
	tuplesEqual(t, all, want)
	tuplesEqual(t, kept, want[6:])
}

// TestCompactionPinUnderPoison: the compactor borrows every record it looks
// at and keeps only payload bytes; with ended loans poisoned it must still
// write the pinned bytes.
func TestCompactionPinUnderPoison(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	TestCompactionPin(t)
}

// idleStream records n tuples of a user standing still: the deployed NFAs
// step on every one of them and nothing ever fires.
func idleStream(t testing.TB, root, name string, n int) {
	t.Helper()
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 3)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sim.RunScript([]kinect.ScriptItem{{Idle: time.Duration(n) * time.Second / 30}}, testTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tuples := kinect.ToTuples(sess.Frames)
	if len(tuples) < n {
		t.Fatalf("the idle script produced %d frames, want %d", len(tuples), n)
	}
	w, err := Create(root, name, kinect.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples[:n] {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestArchiveAllocGates holds the archive path to what the serving path is
// held to: nothing allocated per tuple. A tap — of one tuple or of a batch's
// bodies — costs nothing amortised over a drain cycle, a lending read nothing once the reader's buffer has its size,
// an owning read exactly its two slices, and a backfill nothing that grows
// with the stream it reads (detections aside: the idle stream fires none).
func TestArchiveAllocGates(t *testing.T) {
	root := t.TempDir()
	tuples := benchTuples(1024)

	// One segment, so that the reads below never pay for opening the next.
	w, err := Create(root, "tapped", kinect.Schema(), Options{SegmentBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 0)
	tap := rec.Tap()
	fields := kinect.Schema().Len()
	bodies, size := appendBodies(nil, tuples), 64*tupleBytes(fields)
	for _, c := range []struct {
		name string
		tap  func()
	}{
		{"one tuple at a time", func() {
			for _, tu := range tuples {
				tap(tu)
			}
		}},
		{"a 64-tuple batch's bodies at a time", func() {
			for off := 0; off < len(bodies); off += size {
				rec.TapBodies(bodies[off:off+size], fields)
			}
		}},
	} {
		cycle := func() {
			c.tap()
			if err := rec.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // grows both backlog buffers' worth of the first bursts
		cycle()
		perCycle := testing.AllocsPerRun(20, cycle)
		t.Logf("%s: a drain cycle of %d tuples allocates %g times", c.name, len(tuples), perCycle)
		if perCycle/float64(len(tuples)) > 0.01 {
			t.Errorf("tapping %d tuples %s and draining them allocates %g times, want (almost) nothing per tuple", len(tuples), c.name, perCycle)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 || rec.Recorded() != 46*uint64(len(tuples)) {
		t.Fatalf("recorded %d, dropped %d of %d tapped", rec.Recorded(), rec.Dropped(), 46*len(tuples))
	}

	r, err := OpenReader(root, "tapped")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Lend(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Lend(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a lending read allocates %g times per record, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Errorf("an owning read allocates %g times per record, want 2 (tuple headers, field arena)", allocs)
	}

	plans := benchPlans(t, 4)
	backfillAllocs := func(name string, n int) float64 {
		idleStream(t, root, name, n)
		return testing.AllocsPerRun(5, func() {
			r, err := OpenReader(root, name)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			dets, err := Backfill(r, plans, BackfillOptions{})
			if _, got := r.Counters(); err != nil || len(dets) != 0 || got != uint64(n) {
				t.Fatalf("backfilled %d of %d idle tuples, %d detections, err %v", got, n, len(dets), err)
			}
		})
	}
	short, long := backfillAllocs("idle-short", 1024), backfillAllocs("idle-long", 8192)
	if long > short+2 {
		t.Errorf("backfilling 8192 tuples allocates %g times, 1024 tuples %g: %g per extra tuple, want 0",
			long, short, (long-short)/7168)
	}
}

// TestBackfillStopsAtTheNextRecord: once nobody wants the result, evaluation
// costs at most the record in hand.
func TestBackfillStopsAtTheNextRecord(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "s", kinect.Schema(), Options{BatchTuples: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range kinect.ToTuples(playbackFrames(t, 7)) {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	plan, err := anduin.CompilePlanText(swipeQuery(t), anduin.NewPlanEnv())
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(root, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var atCancel uint64
	dets, err := backfill(ctx, r, []*anduin.Plan{plan}, BackfillOptions{OnDetection: func(anduin.Detection) {
		if atCancel == 0 {
			atCancel, _ = r.Counters()
			cancel()
		}
	}})
	if !errors.Is(err, context.Canceled) || len(dets) == 0 {
		t.Fatalf("backfill = %d detections, %v; want the first detection and context.Canceled", len(dets), err)
	}
	if records, _ := r.Counters(); records != atCancel {
		t.Errorf("evaluation went on to record %d after the request ended in record %d", records, atCancel)
	}
	if _, err := r.Lend(); err != nil {
		t.Errorf("the recording ends where the backfill stopped (%v); the test stopped nothing", err)
	}
}

// TestSegmentBuffersOutliveTheSegment: the writer rolls onto a new segment
// through the bufio.Writer it already has, and a reader crosses into the
// next segment through the bufio.Reader and record buffer it already has —
// a segment boundary opens a file and leaves no buffers to the collector.
func TestSegmentBuffersOutliveTheSegment(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "s", synthSchema, smallSegOpts)
	if err != nil {
		t.Fatal(err)
	}
	bw := w.bw
	tuples := synthTuples(64)
	for _, tu := range tuples {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
		if w.bw != bw {
			t.Fatalf("segment %d is written through a new bufio.Writer", w.segIndex)
		}
	}
	if w.segIndex < 2 {
		t.Fatalf("wrote %d segments, want several", w.segIndex+1)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(root, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var br *bufio.Reader
	var buf *byte
	var got []stream.Tuple
	for {
		ts, err := r.Lend()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if br == nil {
			br, buf = r.seg.r, &r.seg.buf[0]
		} else if r.seg.r != br || &r.seg.buf[0] != buf {
			t.Fatalf("segment %d is read through new buffers", r.pos-1)
		}
		for _, tu := range ts {
			got = append(got, tu.Clone())
		}
	}
	tuplesEqual(t, got, tuples)
}
