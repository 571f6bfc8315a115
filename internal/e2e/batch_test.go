package e2e

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// TestBatchSplitInvariance feeds the golden fixture's sessions through a
// serve.Manager cut into batches of 1, 7, 64 and seeded random widths: where
// a stream is cut is invisible to the engine. Every split must give the
// detections the committed golden file pins for the bare engine, byte for
// byte, with the same counters.
func TestBatchSplitInvariance(t *testing.T) {
	m, err := serve.NewManager(serve.Config{Shards: 2}, demoRegistry(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	rng := rand.New(rand.NewSource(18))
	splits := []struct {
		name  string
		width func() int
	}{
		{"1", func() int { return 1 }},
		{"7", func() int { return 7 }},
		{"64", func() int { return 64 }},
		{"mixed", func() int { return 1 + rng.Intn(96) }},
	}
	sessions := goldenSessionTuples(t)
	pinned := goldenPins(t, len(sessions))
	for s, tuples := range sessions {
		var first []byte
		for _, split := range splits {
			sess, err := m.CreateSession(fmt.Sprintf("golden-%d-by-%s", s, split.name))
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(tuples); {
				n := min(split.width(), len(tuples)-off)
				if n == 1 {
					err = sess.FeedTuple(tuples[off])
				} else {
					// FeedLent with no lender owns the slice it is handed.
					err = sess.FeedLent(append([]stream.Tuple(nil), tuples[off:off+n]...), nil, 0, nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				off += n
			}
			sess.Flush()
			got := EncodeDets(t, sess.Detections())
			if in, out, dropped := sess.Counters(); in != uint64(len(tuples)) || out != in || dropped != 0 {
				t.Errorf("session %d by %s: counters = %d/%d/%d, want in=out=%d dropped=0",
					s, split.name, in, out, dropped, len(tuples))
			}
			if first == nil {
				first = got
				if sum := fmt.Sprintf("sha256 %x", sha256.Sum256(got)); !strings.HasSuffix(pinned[s], sum) {
					t.Errorf("session %d served by %s: %s, golden file pins %q", s, split.name, sum, pinned[s])
				}
			} else if !bytes.Equal(got, first) {
				t.Errorf("session %d: batches of %s give different detection bytes than batches of %s",
					s, split.name, splits[0].name)
			}
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
