package wire_test

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// End-to-end protocol suites over the shared internal/e2e harness (one
// in-process backend, no gateway — the single-node deployment).

// TestWireDifferential is the network twin of the serving determinism test:
// a session driven through the full wire loopback (client → gestured →
// Manager) must yield byte-identical detections to a bare-engine replay of
// the same frames.
func TestWireDifferential(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 7)
	h := e2e.Start(t, e2e.Options{Serve: serve.Config{Shards: 4}})

	cl := h.Dial()
	// An odd batch size exercises partial final batches.
	rs, err := cl.Attach("user-1", wire.AttachOptions{BatchSize: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rs.Fields(), kinect.Schema().Len(); got != want {
		t.Fatalf("attach reports %d fields, want %d", got, want)
	}
	if err := e2e.FeedFrames(rs, frames); err != nil {
		t.Fatal(err)
	}
	counters, err := rs.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if counters.In != uint64(len(frames)) || counters.Out != counters.In || counters.Dropped != 0 {
		t.Errorf("counters = %+v, want in=out=%d dropped=0", counters, len(frames))
	}
	remote := rs.Detections()
	if len(remote) == 0 {
		t.Fatal("remote session detected nothing; expected at least one swipe_right")
	}

	// Reference: bare engine fed the identical post-transport tuples.
	plan, _ := h.Registry.Get("swipe_right")
	bare := e2e.BareReplay(t, plan, e2e.WireTuples(t, kinect.ToTuples(frames)))
	if !bytes.Equal(e2e.EncodeDets(t, remote), e2e.EncodeDets(t, bare)) {
		t.Errorf("wire detections diverge from bare engine:\nremote: %+v\nbare:   %+v", remote, bare)
	}

	if _, err := rs.Detach(); err != nil {
		t.Fatal(err)
	}
	if h.Manager(0).SessionCount() != 0 {
		t.Error("session still live after detach")
	}
}

// TestWire64Sessions drives 64 concurrent remote sessions over several
// connections and requires zero detection divergence from the bare-engine
// replay — the acceptance bar for the ingestion layer.
func TestWire64Sessions(t *testing.T) {
	frames := e2e.PlaybackFrames(t, 7)
	tuples := kinect.ToTuples(frames)
	h := e2e.Start(t, e2e.Options{Serve: serve.Config{Shards: 4, QueueDepth: 128}})

	plan, _ := h.Registry.Get("swipe_right")
	want := e2e.EncodeDets(t, e2e.BareReplay(t, plan, e2e.WireTuples(t, tuples)))

	const sessions, conns = 64, 4
	clients := make([]*wire.Client, conns)
	for i := range clients {
		clients[i] = h.Dial()
	}
	var wg sync.WaitGroup
	results := make([][]byte, sessions)
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, err := clients[i%conns].Attach(fmt.Sprintf("user-%02d", i), wire.AttachOptions{BatchSize: 16})
			if err != nil {
				errs <- err
				return
			}
			for _, tp := range tuples {
				if err := rs.FeedTuple(tp); err != nil {
					errs <- err
					return
				}
			}
			if _, err := rs.Flush(); err != nil {
				errs <- err
				return
			}
			results[i] = e2e.EncodeDets(t, rs.Detections())
			if _, err := rs.Detach(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if bytes.Equal(want, e2e.EncodeDets(t, nil)) {
		t.Fatal("bare replay detected nothing")
	}
	diverged := 0
	for i, got := range results {
		if !bytes.Equal(got, want) {
			diverged++
			t.Errorf("session %d diverged from bare replay", i)
		}
	}
	if diverged == 0 {
		mm := h.Manager(0).Metrics()
		if mm.Enqueued != uint64(sessions*len(tuples)) {
			t.Errorf("server enqueued %d tuples, want %d", mm.Enqueued, sessions*len(tuples))
		}
	}
}

// TestWireDropReporting verifies DropOldest drop counts propagate to the
// client: a single gated shard with a tiny queue must evict tuples, and the
// flush acknowledgement must carry the session's cumulative drop count.
func TestWireDropReporting(t *testing.T) {
	// Eight instantiations of a cheap always-false plan make per-tuple
	// processing slow enough that a depth-1 queue must drop under a burst.
	// The queue's unit is the wire batch: every batch here is wider than the
	// depth, so it is admitted alone and evicts whatever is still queued —
	// a round must therefore be several batches for one to overtake another.
	const neverQuery = `SELECT "never" MATCHING kinect_t(rHand_y > 100000);`
	plans := map[string]string{}
	for i := 0; i < 8; i++ {
		plans[fmt.Sprintf("never%d", i)] = neverQuery
	}
	h := e2e.Start(t, e2e.Options{
		Serve: serve.Config{Shards: 1, QueueDepth: 1, Policy: serve.DropOldest},
		Plans: plans,
	})

	cl := h.Dial()
	rs, err := cl.Attach("bursty", wire.AttachOptions{BatchSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.NoNoise(), 3)
	if err != nil {
		t.Fatal(err)
	}
	frames := sim.Idle(e2e.TestTime(), 10*time.Second)

	var counters wire.SessionCounters
	fed := uint64(0)
	for round := 0; round < 50 && counters.Dropped == 0; round++ {
		if err := e2e.FeedFrames(rs, frames); err != nil {
			t.Fatal(err)
		}
		fed += uint64(len(frames))
		if counters, err = rs.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if counters.Dropped == 0 {
		t.Fatal("no drops observed through a depth-1 DropOldest queue")
	}
	if counters.In != fed || counters.Out != counters.In {
		t.Errorf("counters = %+v, want in=out=%d", counters, fed)
	}
	if rs.Dropped() != counters.Dropped {
		t.Errorf("client cached drop count %d, flush reported %d", rs.Dropped(), counters.Dropped)
	}
}

// TestWireMetricsAndPing fetches a fleet metrics snapshot and a pong over
// the wire.
func TestWireMetricsAndPing(t *testing.T) {
	const neverQuery = `SELECT "never" MATCHING kinect_t(rHand_y > 100000);`
	h := e2e.Start(t, e2e.Options{Serve: serve.Config{Shards: 2}, Plans: map[string]string{"never": neverQuery}})
	cl := h.Dial()
	rs, err := cl.Attach("m", wire.AttachOptions{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.NoNoise(), 3)
	if err != nil {
		t.Fatal(err)
	}
	frames := sim.Idle(e2e.TestTime(), time.Second)
	if err := e2e.FeedFrames(rs, frames); err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	mm, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if mm.Sessions != 1 || mm.Enqueued != uint64(len(frames)) || len(mm.Shards) != 2 {
		t.Errorf("metrics = %+v, want 1 session, %d enqueued, 2 shards", mm, len(frames))
	}
	pong, err := cl.Ping(7)
	if err != nil {
		t.Fatal(err)
	}
	if pong.Seq != 7 || pong.Name != "backend-0" || pong.Sessions != 1 {
		t.Errorf("pong = %+v, want seq=7 name=backend-0 sessions=1", pong)
	}
}

// TestWireRedial pins the recovery primitive: Redial must hand out a
// connection only after a ping round trip proves the server is serving —
// a dead address fails on connect, and a listener that accepts but never
// answers (a wedged process) fails on the ping timeout without leaking the
// connection's goroutines.
func TestWireRedial(t *testing.T) {
	t.Parallel()
	h := e2e.Start(t, e2e.Options{Serve: serve.Config{Shards: 1}})

	cl, err := wire.Redial(h.Addr(), time.Second)
	if err != nil {
		t.Fatalf("redial against a live server: %v", err)
	}
	if pong, err := cl.Ping(7); err != nil || pong.Seq != 7 {
		t.Fatalf("redialed connection unusable: %+v, %v", pong, err)
	}
	cl.Close()

	// A dead address: the listener is gone, so the dial itself fails.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	if _, err := wire.Redial(deadAddr, 250*time.Millisecond); err == nil {
		t.Fatal("redial against a closed listener succeeded")
	}

	// A wedged server: accepts the connection, never answers the ping.
	wedged, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := wedged.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range held {
			c.Close()
		}
	}()
	start := time.Now()
	if _, err := wire.Redial(wedged.Addr().String(), 100*time.Millisecond); err == nil {
		t.Fatal("redial against a wedged server succeeded without a pong")
	} else if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("redial took %v to give up on a wedged server", elapsed)
	}
}
