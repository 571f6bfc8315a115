package e2e

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"slices"
	"strings"
	"testing"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// TestNobodyReadsALentTuple serves the golden fixture's sessions over a real
// wire.Server with every ended loan poisoned: a batch buffer is NaN-filled
// the moment it is released and the kinect_t view's array after each
// Publish. Anything on the serving path that still read a tuple after giving
// it back — a run, a measure, a listener — would compute on NaNs, and the
// detections would leave the committed golden digests. They must not, for
// batches of 1, 7, 64 and random widths, under Block (a short queue, so the
// reader waits on the worker with buffers in flight) and under DropOldest
// (a queue deep enough that nothing is ever evicted). Every batch goes out
// narrowed to the read set the server advertised.
func TestNobodyReadsALentTuple(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)

	sessions := goldenSessionTuples(t)
	pinned := goldenPins(t, len(sessions))
	reg := demoRegistry(t)

	rng := rand.New(rand.NewSource(19))
	splits := []struct {
		name  string
		width func() int
	}{
		{"1", func() int { return 1 }},
		{"7", func() int { return 7 }},
		{"64", func() int { return 64 }},
		{"mixed", func() int { return 1 + rng.Intn(96) }},
	}
	for _, cfg := range []serve.Config{
		{Shards: 2, Policy: serve.Block, QueueDepth: 96},
		{Shards: 2, Policy: serve.DropOldest, QueueDepth: 1 << 14},
	} {
		t.Run(cfg.Policy.String(), func(t *testing.T) {
			mgr, err := serve.NewManager(cfg, reg)
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			srv := wire.NewServer(mgr)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()
			cl, sent := dialCounting(t, ln.Addr().String())
			defer cl.Close()

			var reads []int
			for s, tuples := range sessions {
				for _, split := range splits {
					// The client cuts a batch where the test says, not at a
					// fixed size.
					rs, err := cl.Attach(fmt.Sprintf("lent-%d-by-%s", s, split.name), wire.AttachOptions{BatchSize: wire.MaxBatch})
					if err != nil {
						t.Fatal(err)
					}
					if reads == nil {
						reads = rs.Reads()
					}
					if rs.Reads() == nil || !slices.Equal(rs.Reads(), reads) {
						t.Fatalf("session sends fields %v, the first sent %v; want one read set", rs.Reads(), reads)
					}
					for off := 0; off < len(tuples); {
						n := min(split.width(), len(tuples)-off)
						for _, tup := range tuples[off : off+n] {
							if err := rs.FeedTuple(tup); err != nil {
								t.Fatal(err)
							}
						}
						if err := rs.FlushBatch(); err != nil {
							t.Fatal(err)
						}
						off += n
					}
					c, err := rs.Detach()
					if err != nil {
						t.Fatal(err)
					}
					if c.In != uint64(len(tuples)) || c.Out != c.In || c.Dropped != 0 {
						t.Errorf("session %d by %s: counters = %+v, want in=out=%d dropped=0", s, split.name, c, len(tuples))
					}
					sum := fmt.Sprintf("sha256 %x", sha256.Sum256(EncodeDets(t, rs.Detections())))
					if !strings.HasSuffix(pinned[s], sum) {
						t.Errorf("session %d served by %s under poison: %s, golden file pins %q", s, split.name, sum, pinned[s])
					}
				}
			}
			sent.only(t, batchShape{narrowed: true, fields: len(reads)})
		})
	}
}

// TestNobodyReadsALentRecord is the same claim for the archive's side of the
// house, where a store.Reader lends a record until the next is read: the
// golden fixture's sessions are recorded while served through a gateway, the
// backend they live on is drained half-way — the migration history fetch
// borrows every record it sends on — and the survivor then backfills the
// finished recordings over the wire. With every ended loan poisoned (a
// reader's buffer is NaN-filled when its loan ends, the view's array after
// each Publish), the served detections and the backfilled ones must still be
// the committed golden digests, and a backfill must leave the archive's bytes
// as they were.
func TestNobodyReadsALentRecord(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)

	sessions := goldenSessionTuples(t)
	pinned := goldenPins(t, len(sessions))
	// The harness registers plans in map order; asking for them by name
	// deploys them in the golden replay's.
	names := kinect.DemoGestureNames()
	plans := make(map[string]string)
	for i, text := range DemoQueries(t) {
		plans[names[i]] = text
	}
	h := Start(t, Options{Backends: 2, Gateway: true, Record: true, Plans: plans, Serve: serve.Config{Shards: 2}})
	cl := h.Dial()

	ids := make([]string, len(sessions))
	rss := make([]*wire.RemoteSession, len(sessions))
	feed := func(s int, tuples []stream.Tuple) {
		t.Helper()
		for _, tup := range tuples {
			if err := rss[s].FeedTuple(tup); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := rss[s].Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for s, tuples := range sessions {
		ids[s] = fmt.Sprintf("golden-%d", s)
		rs, err := cl.Attach(ids[s], wire.AttachOptions{Gestures: names})
		if err != nil {
			t.Fatal(err)
		}
		rss[s] = rs
		feed(s, tuples[:len(tuples)/2])
	}
	victim := 0
	if !h.HasRecording(0, ids[0]) {
		victim = 1
	}
	if moved, err := h.Gateway.Drain(h.Spawner.ID(victim)); err != nil || moved == 0 {
		t.Fatalf("drain moved %d sessions: %v", moved, err)
	}
	var total uint64
	for s, tuples := range sessions {
		feed(s, tuples[len(tuples)/2:])
		if _, err := rss[s].Detach(); err != nil {
			t.Fatal(err)
		}
		total += uint64(len(tuples))
		sum := fmt.Sprintf("sha256 %x", sha256.Sum256(EncodeDets(t, rss[s].Detections())))
		if !strings.HasSuffix(pinned[s], sum) {
			t.Errorf("session %d served across a migration under poison: %s, golden file pins %q", s, sum, pinned[s])
		}
	}

	// Every session ended on the survivor, whose recording of it is whole:
	// history replayed into it by the migration, then the rest.
	survivor := 1 - victim
	archive := os.DirFS(h.RecordRoot(survivor))
	before := fsDigest(t, archive)
	bcl, err := wire.Dial(h.Spawner.Addr(survivor))
	if err != nil {
		t.Fatal(err)
	}
	defer bcl.Close()
	got := make([][]anduin.Detection, len(ids))
	reply, err := bcl.Backfill(wire.BackfillRequest{Streams: ids, Gestures: names},
		func(i int, dets []anduin.Detection) { got[i] = append(got[i], dets...) })
	if err != nil {
		t.Fatal(err)
	}
	if reply.Tuples != total || len(reply.Missing) != 0 {
		t.Errorf("backfill read %d of %d recorded tuples, missing %v", reply.Tuples, total, reply.Missing)
	}
	for s := range sessions {
		sum := fmt.Sprintf("sha256 %x", sha256.Sum256(EncodeDets(t, got[s])))
		if !strings.HasSuffix(pinned[s], sum) {
			t.Errorf("session %d backfilled under poison: %s, golden file pins %q", s, sum, pinned[s])
		}
	}
	if after := fsDigest(t, archive); after != before {
		t.Error("a backfill changed the archive it read")
	}
}

// fsDigest hashes every file under fsys, path and bytes.
func fsDigest(t *testing.T, fsys fs.FS) string {
	t.Helper()
	h := sha256.New()
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(fsys, path)
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
