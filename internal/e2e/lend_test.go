package e2e

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"testing"

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
// (a queue deep enough that nothing is ever evicted).
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
			cl, err := wire.Dial(ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			for s, tuples := range sessions {
				for _, split := range splits {
					// The client cuts a batch where the test says, not at a
					// fixed size.
					rs, err := cl.Attach(fmt.Sprintf("lent-%d-by-%s", s, split.name), wire.AttachOptions{BatchSize: wire.MaxBatch})
					if err != nil {
						t.Fatal(err)
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
		})
	}
}
