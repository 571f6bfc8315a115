package store

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"gesturecep/internal/kinect"
	"gesturecep/internal/stream"
)

// archiveDigest hashes every segment and sidecar of one stream directory —
// name, length, bytes, in name order. The manifest is left out: it carries
// the creation time.
func archiveDigest(t testing.TB, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if e.Name() != manifestName {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%d files %x", len(names), h.Sum(nil))
}

// TestFormatPin pins the bytes on disk across commits: for a fixed tuple
// sequence — full records, a short record cut by a mid-stream flush, segment
// rolls, a short tail record at close — the segments and sidecars written
// through Writer.Append and through a Recorder's tap must both hash to the
// digest recorded from the commit before the store stopped keeping tuples
// (PR 20). A digest that moves means archives written by one build are not
// the archives another build writes; change it only with the format version.
func TestFormatPin(t *testing.T) {
	for _, tc := range []struct {
		name    string
		schema  *stream.Schema
		tuples  []stream.Tuple
		opts    Options
		flushAt int
		want    string
	}{
		{
			// 40-byte tuples, 8 per record, 7 records per segment: 100 tuples
			// are 12 records and a flushed short one of 4, the last 50 six
			// more and a tail of 2; three segments.
			name: "small", schema: synthSchema, tuples: synthTuples(150),
			opts:    Options{BatchTuples: 8, SegmentBytes: 2048, IndexEvery: 2},
			flushAt: 100,
			want:    "6 files 26d48ab530cf2523acba0583ecef9ddb6a847bb0e44dbe93b2de3465816a4da9",
		},
		{
			// The geometry the daemons record with: kinect width, 256 tuples
			// per record.
			name: "kinect", schema: kinect.Schema(), tuples: benchTuples(1000),
			opts:    Options{},
			flushAt: 600,
			want:    "2 files e1b501f2d3d597b988e054202f316226cf0ff34154fa4429ee8aff07195b4702",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()

			w, err := Create(root, "appended", tc.schema, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, tu := range tc.tuples {
				if i == tc.flushAt {
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if err := w.Append(tu); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w, err = Create(root, "tapped", tc.schema, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			rec := NewRecorder(w, len(tc.tuples))
			tap := rec.Tap()
			for i, tu := range tc.tuples {
				if i == tc.flushAt {
					if err := rec.Sync(); err != nil {
						t.Fatal(err)
					}
				}
				tap(tu)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			if rec.Recorded() != uint64(len(tc.tuples)) || rec.Dropped() != 0 {
				t.Fatalf("recorded %d, dropped %d of %d tapped", rec.Recorded(), rec.Dropped(), len(tc.tuples))
			}

			for _, name := range []string{"appended", "tapped"} {
				if got := archiveDigest(t, StreamDir(root, name)); got != tc.want {
					t.Errorf("%s: archive digest %s, pinned %s", name, got, tc.want)
				}
				got, err := ReadAll(root, name)
				if err != nil {
					t.Fatal(err)
				}
				tuplesEqual(t, got, tc.tuples)
			}
		})
	}
}

// compactionPinDigest is what the compactor of the commit before PR 20 —
// which decoded every kept record and re-encoded it — leaves of the stream
// TestCompactionPin builds.
const compactionPinDigest = "16 files aa883387618b7a8b1240e15b4be59d0d4a9ba335bea999243ffbae5f8067fe89"

// TestCompactionPin pins a compacted stream byte for byte: segments dropped
// off the front, the head segment rewritten without its expired records and
// its sidecar rebuilt, the rest untouched.
func TestCompactionPin(t *testing.T) {
	root := t.TempDir()
	all := synthTuples(200)
	writeStream(t, root, "pinned", all, smallSegOpts)
	// Records hold 4 tuples: the one with tuples 116..119 is the first kept,
	// and it does not start a segment, so the head is rewritten.
	const maxAge = time.Hour
	stats, err := NewArchive(root, synthSchema, Options{}, 0).NewCompactor(RetentionPolicy{MaxAge: maxAge}).Run(all[117].Ts.Add(maxAge))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsDropped == 0 || stats.SegmentsRewritten != 1 {
		t.Fatalf("stats = %+v, want segments dropped and exactly one rewritten", stats)
	}
	if got := archiveDigest(t, StreamDir(root, "pinned")); got != compactionPinDigest {
		t.Errorf("compacted archive digest %s, pinned %s", got, compactionPinDigest)
	}
	got, err := ReadAll(root, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	tuplesEqual(t, got, all[116:])
}
