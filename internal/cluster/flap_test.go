package cluster_test

import (
	"encoding/json"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gesturecep/internal/cluster"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// flapBackend is a protocol-correct wire backend that dies on the data
// path: it answers pings, attaches and flushes like a healthy server, then
// closes the connection the moment real work arrives (a batch frame — or,
// with killOnAttach, right after acknowledging an attach). Every re-dial is
// accepted, so with re-admission enabled the gateway sees an endlessly
// flapping backend: probes and attaches keep succeeding, batch writes keep
// failing.
type flapBackend struct {
	ln           net.Listener
	killOnAttach bool
	conns        atomic.Int64
}

func startFlapBackend(t *testing.T, killOnAttach bool) *flapBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &flapBackend{ln: ln, killOnAttach: killOnAttach}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fb.conns.Add(1)
			go fb.serve(c)
		}
	}()
	return fb
}

func (fb *flapBackend) serve(c net.Conn) {
	defer c.Close()
	r := wire.NewReader(c)
	w := wire.NewWriter(c)
	var handles uint32
	reads := make([]int, kinect.Schema().Len()) // every field, as a recording server lists it
	for j := range reads {
		reads[j] = j
	}
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.FramePing:
			var p wire.Ping
			if json.Unmarshal(f.Payload, &p) != nil {
				return
			}
			if w.WriteJSON(wire.FramePong, &wire.Pong{Seq: p.Seq, Name: "flap"}) != nil {
				return
			}
		case wire.FrameAttach:
			handles++
			if w.WriteJSON(wire.FrameAttachOK, &wire.AttachReply{
				Handle: handles,
				Fields: len(reads),
				Plans:  []string{"swipe_right"},
				Reads:  reads,
			}) != nil {
				return
			}
			if fb.killOnAttach {
				return
			}
		case wire.FrameBatch:
			return // the flap: die whenever data arrives
		case wire.FrameFlush, wire.FrameDetach:
			var ref wire.SessionRef
			if json.Unmarshal(f.Payload, &ref) != nil {
				return
			}
			ack := wire.FrameFlushOK
			if f.Type == wire.FrameDetach {
				ack = wire.FrameDetachOK
			}
			if w.WriteJSON(ack, &wire.SessionCounters{Handle: ref.Handle}) != nil {
				return
			}
		default:
			return
		}
	}
}

// flapTuple builds one kinect-width tuple.
func flapTuple(i int) stream.Tuple {
	return stream.Tuple{
		Ts:     e2e.TestTime().Add(time.Duration(i) * 33 * time.Millisecond),
		Seq:    uint64(i),
		Fields: make([]float64, kinect.Schema().Len()),
	}
}

// testFlappingBackend pins the intended behavior of handleBatch's
// eject-and-retry loop against a backend that keeps coming back and keeps
// dying: the session must FAIL deterministically — a bounded number of
// attempts with backoff, then a sticky session error surfaced to the client
// — rather than spinning hot forever re-homing onto fresh incarnations of
// the same flapping backend. Run under -race, the test also shreds the
// retry loop's locking against the recovery goroutines re-admitting the
// backend concurrently.
func testFlappingBackend(t *testing.T, killOnAttach bool) {
	fb := startFlapBackend(t, killOnAttach)
	gw, err := cluster.NewGateway(cluster.Config{
		Backends:          []cluster.Backend{{ID: "flap", Addr: fb.ln.Addr().String()}},
		Name:              "flap-gw",
		ProbeInterval:     -1, // batch failures alone drive the eject/readmit cycle
		ProbeTimeout:      time.Second,
		ReadmitBackoff:    time.Millisecond,
		ReadmitMaxBackoff: 5 * time.Millisecond,
		Logger:            obs.NewLogger(256, func(e obs.Event) { t.Logf("%s", e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go gw.Serve(ln)

	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	rs, err := cl.Attach("flappy", wire.AttachOptions{BatchSize: 1, Discard: true})
	if err != nil {
		t.Fatal(err)
	}

	// Feed until the session failure surfaces. Unbounded retries would
	// never return an error here; a hot spin would burn the deadline.
	fed := make(chan error, 1)
	go func() {
		for i := 0; i < 1_000_000; i++ {
			if err := rs.FeedTuple(flapTuple(i)); err != nil {
				fed <- err
				return
			}
			if i%8 == 7 {
				if _, err := rs.Flush(); err != nil {
					fed <- err
					return
				}
			}
		}
		fed <- nil
	}()
	select {
	case err := <-fed:
		if err == nil {
			t.Fatal("session survived 1M tuples against a perpetually flapping backend; expected a bounded, sticky failure")
		}
		t.Logf("session failed as intended: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("gateway still retrying after 30s: flapping backend wedged the batch path")
	}
	if n := fb.conns.Load(); n < 2 {
		t.Fatalf("backend saw %d connections; the flap cycle never re-dialed", n)
	}
}

func TestGatewayFlappingBackendFailsBounded(t *testing.T) {
	testFlappingBackend(t, false)
}

// The kill-on-attach variant re-homes onto incarnations that are already
// dead by the time the batch is retried, exercising the attempt counter
// rather than the enqueue-then-discover cycle.
func TestGatewayFlappingBackendDeadOnArrival(t *testing.T) {
	testFlappingBackend(t, true)
}

// TestGatewayForwardAllocGate is the allocation regression gate for the
// proxied data path. It runs the full BenchmarkGatewayProxy harness and
// fails if allocations per iteration (one recording replay: ~66 tuples in
// 64-tuple batches plus a flush round trip) exceed 116. The pooled forward
// path measures ~51; 116 leaves room for harness noise while a path that
// copies or boxes per batch (two or more allocations for each of the
// recording's batches and flushes) fails it. An alloc count does not depend
// on runner speed, so the gate holds on any host.
func TestGatewayForwardAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation thresholds are not meaningful under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed gate skipped in short mode")
	}
	res := testing.Benchmark(func(b *testing.B) { benchGatewayProxy(b, 0) })
	const maxAllocsPerOp = 116
	t.Logf("gateway proxy: %d allocs/op, %d B/op over %d iterations",
		res.AllocsPerOp(), res.AllocedBytesPerOp(), res.N)
	if res.AllocsPerOp() > maxAllocsPerOp {
		t.Fatalf("gateway forward path allocates %d per replay iteration, gate is %d — zero-copy forwarding has regressed",
			res.AllocsPerOp(), maxAllocsPerOp)
	}
}
