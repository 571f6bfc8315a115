package store

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/stream"
)

// TestRecorderKeepsTheBytes: a tap is lent what it records for the call
// only — TapBodies a batch's encoded bodies, Tap one tuple — and the drain
// goroutine writes it out later, from the copy the tap made during the loan.
// Every batch, bytes and tuples, is scribbled over as soon as its tap
// returns — the way a connection reads its next frame into the same buffer
// — and the recording must still hold the original bytes.
func TestRecorderKeepsTheBytes(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "lent", kinect.Schema(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(w, 0)
	tap := rec.Tap()
	want := kinect.ToTuples(playbackFrames(t, 7))
	var bodies []byte
	fields := kinect.Schema().Len()
	for off, n := 0, 0; off < len(want); off, n = off+64, n+1 {
		batch := make([]stream.Tuple, 0, 64)
		for _, tu := range want[off:min(off+64, len(want))] {
			batch = append(batch, tu.Clone())
		}
		if n%2 == 0 {
			bodies = appendBodies(bodies[:0], batch)
			rec.TapBodies(bodies, fields)
			for k := range bodies {
				bodies[k] = 0xff // NaN bits
			}
			continue
		}
		for _, tu := range batch {
			tap(tu)
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
	if want := 2 * tupleBytes(len(tu.Fields)); backlogBytes(stuck) != want {
		t.Fatalf("backlog holds %d bytes, want the %d of 2 tapped tuples", backlogBytes(stuck), want)
	}
	dropsFree("full buffer", stuck)
	if want := 2 * tupleBytes(len(tu.Fields)); backlogBytes(stuck) != want {
		t.Fatalf("dropping taps left %d bytes queued, want %d", backlogBytes(stuck), want)
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

// backlogBytes is how many encoded bytes r's taps have queued.
func backlogBytes(r *Recorder) int {
	n := 0
	for _, c := range r.pending {
		n += len(c)
	}
	return n
}

// TestRecorderBacklogGrowsByChunks: what a stalled drain leaves queued
// costs its encoded bytes rounded up to one chunk — never a doubled buffer —
// and once the drain has written it, the emptied chunks are what the next
// taps fill. (The drain is called by hand: no goroutine races the counts.)
func TestRecorderBacklogGrowsByChunks(t *testing.T) {
	root := t.TempDir()
	w, err := Create(root, "chunks", synthSchema, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tuples := synthTuples(1000)
	rec := &Recorder{w: w, limit: 4096, fields: synthSchema.Len()}
	chunkBytes := chunkTuples * tupleBytes(rec.fields)
	held := func() (bytes, chunks int) {
		for _, c := range rec.pending {
			bytes += cap(c)
		}
		return bytes, len(rec.pending)
	}
	want := (len(tuples) + chunkTuples - 1) / chunkTuples
	for _, tu := range tuples {
		rec.tap(tu)
	}
	if bytes, chunks := held(); chunks != want || bytes != want*chunkBytes {
		t.Fatalf("%d tuples queued in %d chunks of %d bytes in all, want %d chunks of %d", len(tuples), chunks, bytes, want, chunkBytes)
	}
	spare := rec.drainBacklog(nil)
	if len(rec.free) != want || rec.Recorded() != uint64(len(tuples)) {
		t.Fatalf("after the drain: %d chunks spare and %d recorded, want %d and %d", len(rec.free), rec.Recorded(), want, len(tuples))
	}
	for _, tu := range tuples {
		rec.tap(tu)
	}
	if bytes, chunks := held(); len(rec.free) != 0 || chunks != want || bytes != want*chunkBytes {
		t.Fatalf("refilled %d chunks of %d bytes in all, %d left spare; want the %d spare ones reused", chunks, bytes, len(rec.free), want)
	}
	rec.drainBacklog(spare)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(root, "chunks")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, append(tuples[:len(tuples):len(tuples)], tuples...))
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

// TestArchiveCountersAfterRelease pins the admin plane's recording counters
// to what is on disk: tuples tapped and never synced are drained by the
// release, and the counters count them — tuples, bytes and drops equal
// what a Reader reads back, whatever was still in the backlog when the
// session ended.
func TestArchiveCountersAfterRelease(t *testing.T) {
	arch := NewArchive(t.TempDir(), synthSchema, Options{BatchTuples: 7}, 0)
	defer arch.Close()
	const n = 1000
	rec, err := arch.Record("sess")
	if err != nil {
		t.Fatal(err)
	}
	tap := rec.Tap()
	for _, tu := range synthTuples(n) {
		tap(tu)
	}
	if err := arch.Release(rec); err != nil {
		t.Fatal(err)
	}

	r, err := arch.OpenReader(rec.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(readAllTuples(t, r)); got != n {
		t.Fatalf("read back %d tuples, want %d", got, n)
	}
	records, tuples := r.Counters()
	wantBytes := records*(recHeaderBytes+batchHeadBytes) + tuples*uint64(tupleBytes(synthSchema.Len()))
	if got := arch.counts(); got != (recordCounts{tuples: n, dropped: 0, bytes: wantBytes}) {
		t.Fatalf("counters %+v, want %d tuples, 0 dropped, %d bytes", got, n, wantBytes)
	}

	w := obs.NewPromWriter()
	arch.WriteProm(w)
	for _, want := range []string{
		fmt.Sprintf("store_record_tuples_total %d\n", n),
		"store_record_dropped_total 0\n",
		fmt.Sprintf("store_record_bytes_total %d\n", wantBytes),
	} {
		if !strings.Contains(string(w.Bytes()), want) {
			t.Errorf("WriteProm lacks %q:\n%s", want, w.Bytes())
		}
	}
}

// TestArchiveCountersNeverGoDown: a scrape racing releases sees every
// recording exactly once — in the open sum or in the done totals — so the
// counter only grows, and ends at the tuples tapped.
func TestArchiveCountersNeverGoDown(t *testing.T) {
	arch := NewArchive(t.TempDir(), synthSchema, Options{}, 0)
	defer arch.Close()
	const sessions, n = 8, 500
	recs := make([]*Recorder, sessions)
	for i := range recs {
		rec, err := arch.Record(fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		tap := rec.Tap()
		for _, tu := range synthTuples(n) {
			tap(tu)
		}
		if err := rec.Sync(); err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}
	var wg sync.WaitGroup
	for _, rec := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := arch.Release(rec); err != nil {
				t.Error(err)
			}
		}()
	}
	released := make(chan struct{})
	go func() { wg.Wait(); close(released) }()
	for last := uint64(0); ; {
		got := arch.counts().tuples
		if got < last {
			t.Fatalf("store_record_tuples_total went down: %d → %d", last, got)
		}
		last = got
		select {
		case <-released:
			if got := arch.counts().tuples; got != sessions*n {
				t.Fatalf("%d tuples counted, want %d", got, sessions*n)
			}
			return
		default:
		}
	}
}
