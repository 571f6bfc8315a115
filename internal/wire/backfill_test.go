package wire_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// Backfill protocol tests: a stub archive stands in for the store, so these
// pin the frame exchange itself — ordering, chunking, Missing reporting,
// error scoping — independent of store-layer behavior.

// stubArchive is a wire.Archive that answers backfills with its own
// function and records nothing.
type stubArchive func(ctx context.Context, stream string, since, until time.Time) ([]anduin.Detection, uint64, uint64, error)

func (stubArchive) RecordSession(string) (wire.Recording, error) {
	return nil, errors.New("stub archive records nothing")
}

func (f stubArchive) Backfill(ctx context.Context, stream string, _ []*anduin.Plan, since, until time.Time) ([]anduin.Detection, uint64, uint64, error) {
	return f(ctx, stream, since, until)
}

// startBackfillServer runs a wire server whose archive is the given stub,
// or none when it is nil; the manager is incidental (backfill never touches
// sessions).
func startBackfillServer(t *testing.T, source stubArchive) string {
	t.Helper()
	mgr, err := serve.NewManager(serve.Config{Shards: 1}, serve.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.NewServer(mgr)
	if source != nil {
		srv.Archive = source
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return ln.Addr().String()
}

// synthDets fabricates n distinguishable detections for a stream.
func synthDets(stream string, n int) []anduin.Detection {
	base := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	dets := make([]anduin.Detection, n)
	for i := range dets {
		dets[i] = anduin.Detection{
			Gesture:  stream + "-swipe",
			QueryID:  i,
			Start:    base.Add(time.Duration(i) * time.Second),
			End:      base.Add(time.Duration(i)*time.Second + 100*time.Millisecond),
			Measures: []float64{float64(i), 0.5},
		}
	}
	return dets
}

// stubSource serves synthDets(stream, countOf[stream]) per stream; streams
// absent from countOf are unknown.
func stubSource(countOf map[string]int) stubArchive {
	return func(_ context.Context, stream string, _, _ time.Time) ([]anduin.Detection, uint64, uint64, error) {
		n, ok := countOf[stream]
		if !ok {
			return nil, 0, 0, fmt.Errorf("no archive for %q: %w", stream, wire.ErrUnknownStream)
		}
		return synthDets(stream, n), uint64(n/4 + 1), uint64(n), nil
	}
}

func dialBackfill(t *testing.T, addr string, coalesce bool) *wire.Client {
	t.Helper()
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if coalesce {
		cl.EnableCoalescing()
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestWireBackfill exercises the full request shape — multiple streams, an
// unknown stream mid-list, detections larger than one push frame — with and
// without write coalescing on the client.
func TestWireBackfill(t *testing.T) {
	counts := map[string]int{
		"alpha": 3,
		// > MaxDetections forces the server to chunk this stream across
		// several FrameBackfillDet frames.
		"bravo":   wire.MaxDetections + 37,
		"charlie": 1,
	}
	addr := startBackfillServer(t, stubSource(counts))

	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			cl := dialBackfill(t, addr, coalesce)
			streams := []string{"alpha", "ghost", "bravo", "charlie"}
			got := make(map[int][]anduin.Detection)
			var order []int
			reply, err := cl.Backfill(wire.BackfillRequest{Streams: streams},
				func(idx int, dets []anduin.Detection) {
					if len(got[idx]) == 0 {
						order = append(order, idx)
					}
					got[idx] = append(got[idx], dets...)
				})
			if err != nil {
				t.Fatal(err)
			}
			if len(reply.Missing) != 1 || reply.Missing[0] != 1 {
				t.Errorf("Missing = %v, want [1]", reply.Missing)
			}
			wantDets := uint64(counts["alpha"] + counts["bravo"] + counts["charlie"])
			if reply.Detections != wantDets {
				t.Errorf("reply.Detections = %d, want %d", reply.Detections, wantDets)
			}
			if reply.Tuples != wantDets || reply.Records == 0 {
				t.Errorf("reply counters = %+v", reply)
			}
			// Pushes arrive grouped per stream, in request order, unknown
			// stream skipped.
			if want := []int{0, 2, 3}; fmt.Sprint(order) != fmt.Sprint(want) {
				t.Errorf("stream delivery order = %v, want %v", order, want)
			}
			for i, name := range streams {
				if i == 1 {
					if len(got[i]) != 0 {
						t.Errorf("unknown stream %q delivered %d detections", name, len(got[i]))
					}
					continue
				}
				want := synthDets(name, counts[name])
				if len(got[i]) != len(want) {
					t.Fatalf("stream %q: %d detections, want %d", name, len(got[i]), len(want))
				}
				for j := range want {
					g, w := got[i][j], want[j]
					if g.Gesture != w.Gesture || g.QueryID != w.QueryID ||
						!g.Start.Equal(w.Start) || !g.End.Equal(w.End) ||
						len(g.Measures) != len(w.Measures) {
						t.Fatalf("stream %q detection %d = %+v, want %+v", name, j, g, w)
					}
				}
			}
		})
	}
}

// cannedBackfill serves one connection that answers every backfill
// request with reply, as a server that miscounts would.
func cannedBackfill(t *testing.T, reply string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r, w := wire.NewReader(c), wire.NewWriter(c)
		for {
			f, err := r.Next()
			if err != nil || f.Type != wire.FrameBackfill || w.WriteFrame(wire.FrameBackfillOK, []byte(reply)) != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

// TestWireBackfillErrors pins failure scoping: no source configured and a
// source that fails mid-stream both abort the request with a FrameError, and
// the connection stays usable for ordinary control traffic afterwards. A
// reply whose per-stream counts do not match the request is an error too.
func TestWireBackfillErrors(t *testing.T) {
	t.Run("no source", func(t *testing.T) {
		addr := startBackfillServer(t, nil)
		cl := dialBackfill(t, addr, false)
		_, err := cl.Backfill(wire.BackfillRequest{Streams: []string{"x"}}, nil)
		var er *wire.ErrorReply
		if !errors.As(err, &er) {
			t.Fatalf("backfill without a source: err = %v, want *wire.ErrorReply", err)
		}
		if _, err := cl.Ping(1); err != nil {
			t.Errorf("connection dead after refused backfill: %v", err)
		}
	})

	t.Run("source error mid-request", func(t *testing.T) {
		source := func(_ context.Context, stream string, _, _ time.Time) ([]anduin.Detection, uint64, uint64, error) {
			if stream == "bad" {
				return nil, 0, 0, errors.New("disk exploded")
			}
			return synthDets(stream, 2), 1, 2, nil
		}
		addr := startBackfillServer(t, source)
		cl := dialBackfill(t, addr, false)
		var delivered int
		_, err := cl.Backfill(wire.BackfillRequest{Streams: []string{"ok", "bad", "never"}},
			func(int, []anduin.Detection) { delivered++ })
		var er *wire.ErrorReply
		if !errors.As(err, &er) || !strings.Contains(er.Msg, "disk exploded") {
			t.Fatalf("err = %v, want *wire.ErrorReply wrapping the source error", err)
		}
		if delivered != 1 {
			t.Errorf("delivered %d pushes before the abort, want 1 (stream \"ok\" only)", delivered)
		}
		if _, err := cl.Ping(2); err != nil {
			t.Errorf("connection dead after aborted backfill: %v", err)
		}
	})

	// A reply must count each requested stream once and miss only
	// requested streams; Client.Backfill refuses any other shape.
	for _, row := range []struct{ name, reply, want string }{
		{"short stream_tuples", `{"records":2,"tuples":4,"detections":0,"stream_records":[1,1],"stream_tuples":[4]}`, "counts 2 and 1 streams"},
		{"no counts", `{"records":2,"tuples":4,"detections":0,"stream_records":null,"stream_tuples":null}`, "counts 0 and 0 streams"},
		{"missing outside the request", `{"records":0,"tuples":0,"detections":0,"missing":[2],"stream_records":[0,0],"stream_tuples":[0,0]}`, "misses stream 2 of 2"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cl := dialBackfill(t, cannedBackfill(t, row.reply), false)
			if _, err := cl.Backfill(wire.BackfillRequest{Streams: []string{"a", "b"}}, nil); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("backfill = %v, want an error naming %q", err, row.want)
			}
		})
	}
}

// TestWireBackfillTimeBounds verifies Since/Until cross the wire intact and
// unset bounds arrive as zero times.
func TestWireBackfillTimeBounds(t *testing.T) {
	since := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	until := since.Add(time.Hour)
	var mu sync.Mutex
	var gotSince, gotUntil []time.Time
	source := func(_ context.Context, _ string, s, u time.Time) ([]anduin.Detection, uint64, uint64, error) {
		mu.Lock()
		gotSince = append(gotSince, s)
		gotUntil = append(gotUntil, u)
		mu.Unlock()
		return nil, 0, 0, nil
	}
	addr := startBackfillServer(t, source)
	cl := dialBackfill(t, addr, false)

	if _, err := cl.Backfill(wire.BackfillRequest{
		Streams: []string{"s"},
		SinceNs: since.UnixNano(),
		UntilNs: until.UnixNano(),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Backfill(wire.BackfillRequest{Streams: []string{"s"}}, nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !gotSince[0].Equal(since) || !gotUntil[0].Equal(until) {
		t.Errorf("bounded call saw [%v, %v), want [%v, %v)", gotSince[0], gotUntil[0], since, until)
	}
	if !gotSince[1].IsZero() || !gotUntil[1].IsZero() {
		t.Errorf("unbounded call saw [%v, %v), want zero times", gotSince[1], gotUntil[1])
	}
}

// TestWireBackfillHangUp: a requester that closes its connection in the
// middle of a backfill costs the server no more than the streams that finish
// before it notices — the first write that fails ends the request, every
// stream still being evaluated is told to stop, and no goroutine outlives the
// handler. Stream 0 answers at once and the client hangs up on its first
// frame; stream 1 finishes after the hang-up, so its frames meet a dead
// socket; the rest — those the window lets start — evaluate "forever", that
// is until their context ends.
func TestWireBackfillHangUp(t *testing.T) {
	const streams = 6
	hungUp := make(chan struct{})
	var stopped, abandoned atomic.Int32
	source := func(ctx context.Context, stream string, _, _ time.Time) ([]anduin.Detection, uint64, uint64, error) {
		var idx int
		fmt.Sscanf(stream, "s%d", &idx)
		if idx == 0 {
			return synthDets(stream, 1), 1, 1, nil
		}
		switch idx {
		case 1:
			<-hungUp
		default:
			select {
			case <-ctx.Done():
				stopped.Add(1)
				return nil, 1, 1, ctx.Err()
			case <-time.After(10 * time.Second):
				abandoned.Add(1)
			}
		}
		// Eight full frames: enough writes to meet the reset.
		return synthDets(stream, 8*wire.MaxDetections), 1, 1, nil
	}

	mgr, err := serve.NewManager(serve.Config{Shards: 1}, serve.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	before := runtime.NumGoroutine() // the manager's workers outlive the server
	srv := wire.NewServer(mgr)
	srv.Archive = stubArchive(source)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}

	req := wire.BackfillRequest{}
	for i := range streams {
		req.Streams = append(req.Streams, fmt.Sprintf("s%d", i))
	}
	first := make(chan struct{})
	var once sync.Once
	failed := make(chan error, 1)
	go func() {
		_, err := cl.Backfill(req, func(int, []anduin.Detection) { once.Do(func() { close(first) }) })
		failed <- err
	}()
	<-first
	cl.Close()
	close(hungUp)
	if err := <-failed; err == nil {
		t.Error("a backfill whose connection was closed under it reported success")
	}

	// Close waits for the connection's handler, which waits for its workers.
	srv.Close()
	if n := abandoned.Load(); n != 0 {
		t.Errorf("%d streams were evaluated to the end for nobody", n)
	}
	if runtime.GOMAXPROCS(0) > 1 && stopped.Load() == 0 {
		t.Error("no stream in flight was told the request had failed")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines before the backfill, %d after the server closed\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}
