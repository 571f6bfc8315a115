package store

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// backfillFixture is an archive of recordings of unequal length, the registry
// whose plan they are evaluated with, and a wire server answering backfill
// requests over the archive.
type backfillFixture struct {
	root    string
	reg     *serve.Registry
	plans   []*anduin.Plan
	streams []string // sorted, so request order is BackfillStreams' order
	tuples  uint64
	addr    string
}

// startBackfillFixture records n streams — stream i plays its own seeded
// session i%3+1 times back to back, less a few tuples, so no two are equally
// long — and serves them.
func startBackfillFixture(t *testing.T, n int) *backfillFixture {
	t.Helper()
	fx := &backfillFixture{root: t.TempDir(), reg: serve.NewRegistry()}
	plan, err := fx.reg.Register("swipe_right", swipeQuery(t))
	if err != nil {
		t.Fatal(err)
	}
	fx.plans = []*anduin.Plan{plan}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("rec-%02d", i)
		once := kinect.ToTuples(playbackFrames(t, int64(7+i)))
		once = once[:len(once)-3*i]
		stride := once[len(once)-1].Ts.Sub(once[0].Ts) + time.Second
		var tuples []stream.Tuple
		for loop := 0; loop <= i%3; loop++ {
			for _, tu := range once {
				tu.Ts = tu.Ts.Add(time.Duration(loop) * stride)
				tu.Seq = uint64(len(tuples))
				tuples = append(tuples, tu)
			}
		}
		w, err := Create(fx.root, name, kinect.Schema(), Options{SegmentBytes: 128 << 10, BatchTuples: 32})
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
		fx.streams = append(fx.streams, name)
		fx.tuples += uint64(len(tuples))
	}

	mgr, err := serve.NewManager(serve.Config{Shards: 1}, fx.reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(mgr)
	arch := NewArchive(fx.root, kinect.Schema(), Options{}, 0)
	srv.Archive = arch
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
		arch.Close()
	})
	fx.addr = ln.Addr().String()
	return fx
}

// TestWireBackfillEqualsSerial: a backend may evaluate a request's streams
// side by side, but what the client sees is what one goroutine walking the
// list would have sent — frames in request order, every stream's detections
// byte for byte those of store.BackfillStreams, each stream's records and
// tuples counted as its reader counts them, a stream the archive does not
// hold reported by its index and counted 0 — with and without an event-time
// window.
func TestWireBackfillEqualsSerial(t *testing.T) {
	n := 3*runtime.GOMAXPROCS(0) + 1
	fx := startBackfillFixture(t, n)
	cl, err := wire.Dial(fx.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	ghostAt := n / 2
	requested := append(append(append([]string(nil), fx.streams[:ghostAt]...), "ghost"), fx.streams[ghostAt:]...)
	// The window opens inside every recording's first pass and closes inside
	// the second of those that have one.
	first, err := ReadAll(fx.root, fx.streams[0])
	if err != nil {
		t.Fatal(err)
	}
	since, until := first[len(first)/3].Ts, first[len(first)-1].Ts.Add(4*time.Second)

	for _, tc := range []struct {
		name         string
		since, until time.Time
	}{
		{name: "whole"},
		{name: "window", since: since, until: until},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BackfillStreams(fx.root, fx.streams, fx.plans, BackfillOptions{Since: tc.since, Until: tc.until})
			if err != nil {
				t.Fatal(err)
			}
			req := wire.BackfillRequest{Streams: requested}
			if !tc.since.IsZero() {
				req.SinceNs, req.UntilNs = tc.since.UnixNano(), tc.until.UnixNano()
			}
			got := make([][]anduin.Detection, len(requested))
			last := -1
			reply, err := cl.Backfill(req, func(idx int, dets []anduin.Detection) {
				if idx < last {
					t.Errorf("a frame of stream %d arrived after one of stream %d", idx, last)
				}
				last = idx
				got[idx] = append(got[idx], dets...)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(reply.Missing) != 1 || reply.Missing[0] != ghostAt {
				t.Errorf("Missing = %v, want [%d]", reply.Missing, ghostAt)
			}
			var total uint64
			for i, name := range requested {
				if i == ghostAt {
					if len(got[i]) != 0 {
						t.Errorf("the missing stream delivered %d detections", len(got[i]))
					}
					continue
				}
				at := i
				if i > ghostAt {
					at-- // the baseline has no entry for the ghost
				}
				serial := want[at]
				if len(serial) == 0 {
					t.Errorf("stream %q: the serial backfill detected nothing; the comparison covers too little", name)
				}
				if !bytes.Equal(encodeDets(t, got[i]), encodeDets(t, serial)) {
					t.Errorf("stream %q: wire backfill diverges from store.BackfillStreams\nwire:   %+v\nserial: %+v", name, got[i], serial)
				}
				total += uint64(len(serial))
			}
			if reply.Detections != total {
				t.Errorf("reply.Detections = %d, want %d", reply.Detections, total)
			}
			if tc.since.IsZero() && reply.Tuples != fx.tuples {
				t.Errorf("reply.Tuples = %d, the archive holds %d", reply.Tuples, fx.tuples)
			}
			if reply.Records == 0 || reply.Tuples == 0 {
				t.Errorf("reply counters = %+v", reply)
			}
			if len(reply.StreamRecords) != len(requested) || len(reply.StreamTuples) != len(requested) {
				t.Fatalf("reply counts %d/%d streams' records/tuples, the request names %d",
					len(reply.StreamRecords), len(reply.StreamTuples), len(requested))
			}
			for i, name := range requested {
				var records, tuples uint64
				if i != ghostAt {
					r, err := OpenReader(fx.root, name)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := Backfill(r, fx.plans, BackfillOptions{Since: tc.since, Until: tc.until}); err != nil {
						t.Fatal(err)
					}
					records, tuples = r.Counters()
					r.Close()
				}
				if reply.StreamRecords[i] != records || reply.StreamTuples[i] != tuples {
					t.Errorf("stream %q: reply counts %d records, %d tuples; its reader counted %d, %d",
						name, reply.StreamRecords[i], reply.StreamTuples[i], records, tuples)
				}
			}
		})
	}
}
