package store

import (
	"errors"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/stream"
)

// writeStream records an explicit tuple slice (buildStream always starts
// at the synthetic epoch; retention tests need streams whose histories
// start mid-timeline).
func writeStream(t testing.TB, root, name string, tuples []stream.Tuple, opts Options) {
	t.Helper()
	w, err := Create(root, name, synthSchema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		if err := w.Append(tu); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionRetention pins the three reclaim paths of one pass — whole
// streams, whole front segments, and the head segment's expired prefix —
// and that what survives is exactly the records whose newest tuple is at
// or past the cutoff, still readable with an intact ordinal chain.
func TestCompactionRetention(t *testing.T) {
	root := t.TempDir()
	all := synthTuples(200)
	writeStream(t, root, "old", all[:100], smallSegOpts)   // entirely expired
	writeStream(t, root, "mixed", all, smallSegOpts)       // expired head, live tail
	writeStream(t, root, "fresh", all[150:], smallSegOpts) // entirely retained

	// Pick a cutoff strictly inside the first mixed segment that starts
	// past old's whole span — one full record plus one tuple past its base
	// — so the pass must use all three paths on mixed: drop every earlier
	// segment whole, rewrite the head segment's first record away, keep
	// the rest. (Segment bases are record-aligned: records are 4 tuples.)
	dir := StreamDir(root, "mixed")
	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 mixed segments, got %d (err %v)", len(segs), err)
	}
	boundary := -1
	for _, seg := range segs {
		ix, err := readSidecar(sidecarPath(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		if ix.baseTuple >= 104 {
			boundary = int(ix.baseTuple)
			break
		}
	}
	if boundary < 104 || boundary > 140 {
		t.Fatalf("no usable segment base in [104,140], got %d", boundary)
	}
	cutoff := all[boundary+5].Ts

	const maxAge = time.Hour
	c := NewCompactor(root, RetentionPolicy{MaxAge: maxAge})
	stats, err := c.Run(cutoff.Add(maxAge))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Streams != 3 || stats.StreamsDropped != 1 || stats.StreamsSkipped != 0 {
		t.Fatalf("stats = %+v, want 3 streams with 1 dropped", stats)
	}
	if stats.SegmentsDropped < 1 || stats.SegmentsRewritten != 1 {
		t.Fatalf("stats = %+v, want >=1 segment dropped and exactly 1 rewritten", stats)
	}
	if stats.BytesReclaimed <= 0 {
		t.Fatalf("stats.BytesReclaimed = %d, want > 0", stats.BytesReclaimed)
	}
	if Exists(root, "old") {
		t.Fatal("entirely expired stream still exists")
	}

	// mixed: retained = every record whose newest tuple is >= cutoff.
	// Records are 4 tuples; segment two's first record (tuples boundary..
	// boundary+3) expires, its second (max ts = boundary+7 >= boundary+5)
	// survives. ReadAll revalidates CRCs and the ordinal chain end to end.
	got, err := ReadAll(root, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, all[boundary+4:])

	// fresh: byte-for-byte untouched.
	got, err = ReadAll(root, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, all[150:])

	// Tuple ordinals survive compaction: seeking a global ordinal on the
	// compacted stream still lands on the same tuple.
	r, err := OpenReader(root, "mixed")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	target := uint64(boundary + 14)
	rem, err := r.SeekTuple(target)
	if err != nil {
		t.Fatal(err)
	}
	rest := readFrom(t, r)
	tuplesEqual(t, rest[rem:], all[target:])

	// A second pass at the same cutoff is a no-op.
	stats2, err := c.Run(cutoff.Add(maxAge))
	if err != nil {
		t.Fatal(err)
	}
	if stats2.StreamsDropped+stats2.SegmentsDropped+stats2.SegmentsRewritten != 0 {
		t.Fatalf("second pass reclaimed again: %+v", stats2)
	}
	if s := c.Stats(); s.Runs != 2 || s.SegmentsRewritten != 1 {
		t.Fatalf("cumulative stats = %+v", s)
	}
}

// TestCompactionRacesLiveReadersAndRecorder soaks the read-lock protocol
// under the race detector: an advancing-cutoff compactor progressively
// truncates a long stream while readers continuously re-open and drain
// it through the archive gate, and a live recorder keeps a second stream
// pinned. Every read must observe a consistent suffix of the original
// history — never a half-rewritten stream.
func TestCompactionRacesLiveReadersAndRecorder(t *testing.T) {
	root := t.TempDir()
	arch := NewArchive(root, synthSchema, smallSegOpts, 1<<16)
	const n = 1200
	hist := synthTuples(n)
	writeStream(t, root, "hist", hist, smallSegOpts)

	// The live stream's tuples are just as old as hist's: only the
	// live-recorder skip keeps the compactor off it.
	rec, err := arch.Record("live")
	if err != nil {
		t.Fatal(err)
	}
	tap := rec.Tap()
	for _, tu := range hist[:300] {
		tap(tu)
	}

	const maxAge = time.Hour
	c := arch.NewCompactor(RetentionPolicy{MaxAge: maxAge})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r, err := arch.OpenReader("hist")
				if errors.Is(err, os.ErrNotExist) {
					continue // dropped wholesale near the end of the sweep
				}
				if err != nil {
					t.Error(err)
					return
				}
				var got []stream.Tuple
				for {
					tuples, err := r.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Errorf("mid-compaction read: %v", err)
						break
					}
					got = append(got, tuples...)
				}
				r.Close()
				// Consistency: whatever the compactor had done when this
				// reader acquired the gate, the stream is some exact suffix
				// of the original history. (t.Errorf only — this is not the
				// test goroutine.)
				if len(got) > n {
					t.Errorf("read %d tuples from a %d-tuple history", len(got), n)
					return
				}
				want := hist[n-len(got):]
				for i := range got {
					if !got[i].Ts.Equal(want[i].Ts) || got[i].Seq != want[i].Seq {
						t.Errorf("inconsistent read: tuple %d is seq %d, want %d", i, got[i].Seq, want[i].Seq)
						return
					}
				}
			}
		}()
	}
	// Sweep the cutoff across the whole recorded span, one pass per step.
	for step := 0; step < n+40; step += 40 {
		i := step
		if i >= n {
			i = n - 1
		}
		if _, err := c.Run(hist[i].Ts.Add(maxAge)); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()

	// The live stream was skipped on every pass despite its expired data.
	if s := c.Stats(); s.Failures != 0 {
		t.Fatalf("compactor failures: %+v", s)
	}
	if err := arch.Release(rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(root, "live")
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != rec.Recorded() {
		t.Fatalf("live stream has %d tuples, recorder wrote %d", len(got), rec.Recorded())
	}
	tuplesEqual(t, got, hist[:len(got)])
	if err := arch.Close(); err != nil {
		t.Fatal(err)
	}
}
