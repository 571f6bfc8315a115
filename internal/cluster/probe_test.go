package cluster

import (
	"encoding/json"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// fakeBackend is a wire endpoint that accepts connections and answers at
// most pingsPerConn pings on each before going silent — pingsPerConn 0 is
// a pure black hole (accepts, reads, never replies), the wedged-process
// shape a health prober must not be stalled by; pingsPerConn 1 passes a
// Redial liveness check and then times out every later probe, which is how
// the leak test manufactures an endless eject/re-admit cycle.
type fakeBackend struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func startFakeBackend(t *testing.T, pingsPerConn int) *fakeBackend {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb := &fakeBackend{t: t, ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			fb.mu.Lock()
			fb.conns = append(fb.conns, c)
			fb.mu.Unlock()
			go fb.serveConn(c, pingsPerConn)
		}
	}()
	t.Cleanup(fb.Close)
	return fb
}

func (fb *fakeBackend) serveConn(c net.Conn, pings int) {
	r := wire.NewReader(c)
	w := wire.NewWriter(c)
	answered := 0
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		if f.Type == wire.FramePing && answered < pings {
			var ping wire.Ping
			if err := json.Unmarshal(f.Payload, &ping); err != nil {
				return
			}
			if err := w.WriteJSON(wire.FramePong, &wire.Pong{Seq: ping.Seq, Name: "fake"}); err != nil {
				return
			}
			answered++
		}
		// Everything else — and every ping past the quota — is swallowed.
	}
}

func (fb *fakeBackend) Addr() string { return fb.ln.Addr().String() }

// statsOf returns one member's cross-incarnation counter block.
func statsOf(gw *Gateway, id string) *backendStats {
	m, _ := gw.fleet.lookup(id)
	return m.stats
}

func (fb *fakeBackend) Close() {
	fb.ln.Close()
	fb.mu.Lock()
	defer fb.mu.Unlock()
	for _, c := range fb.conns {
		c.Close()
	}
	fb.conns = nil
}

// TestProbeSweepConcurrent pins the concurrent health sweep: with one
// backend black-holed (its probe parked for the full 2s ProbeTimeout),
// every other backend must still be probed on every tick. The sequential
// sweep this replaces stalled behind the black hole, starving the healthy
// backends of health checks for ProbeTimeout per tick.
func TestProbeSweepConcurrent(t *testing.T) {
	sp, err := Spawn(2, serve.NewRegistry(), SpawnOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	// One pong per connection: enough to pass install's liveness check,
	// after which every health probe is swallowed.
	hole := startFakeBackend(t, 1)

	const interval = 25 * time.Millisecond
	gw, err := NewGateway(Config{
		Backends:      append(sp.Backends(), Backend{ID: "blackhole", Addr: hole.Addr()}),
		ProbeInterval: interval,
		ProbeTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Both healthy backends must rack up probes while the black hole's
	// very first probe is still in flight. 5 probes ≫ one interval proves
	// no sweep ever waited on the stuck one.
	deadline := time.Now().Add(1500 * time.Millisecond)
	for {
		p0 := statsOf(gw, sp.ID(0)).probes.Load()
		p1 := statsOf(gw, sp.ID(1)).probes.Load()
		if p0 >= 5 && p1 >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthy backends probed %d/%d times while one backend is black-holed; "+
				"the sweep is being serialized behind the stuck probe", p0, p1)
		}
		time.Sleep(interval)
	}
	// The black hole has not even timed out yet (ProbeTimeout is 2s), so
	// the healthy probes above cannot have waited for its verdict.
	if st := gw.State("blackhole"); st != StateLive {
		t.Fatalf("black-holed backend already %q before its ProbeTimeout elapsed", st)
	}
	if got := statsOf(gw, "blackhole").probes.Load(); got != 0 {
		t.Fatalf("black-holed backend completed %d probes, want 0", got)
	}
}

// TestMetricsFetchConcurrent: the gateway asks every in-service backend
// for its metrics at once, so two backends that answer pings but never
// metrics cost a Metrics call one ProbeTimeout, not one each. The call runs
// on a front connection's reader goroutine and on every scrape.
func TestMetricsFetchConcurrent(t *testing.T) {
	const timeout = 300 * time.Millisecond
	var backends []Backend
	for _, id := range []string{"mute-0", "mute-1"} {
		backends = append(backends, Backend{ID: id, Addr: startFakeBackend(t, 1).Addr()})
	}
	gw, err := NewGateway(Config{Backends: backends, ProbeInterval: -1, ProbeTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	start := time.Now()
	m := gw.Metrics()
	if took := time.Since(start); took >= 2*timeout {
		t.Errorf("Metrics over 2 mute backends took %v, want under %v", took, 2*timeout)
	}
	for _, row := range m.Backends {
		if row.Healthy || row.State != string(StateLive) {
			t.Errorf("mute backend row %s: healthy %t, state %s; want unhealthy and live", row.ID, row.Healthy, row.State)
		}
	}
}

// TestProbeTimeoutNoGoroutineLeak manufactures an endless probe-timeout
// storm — a backend that passes every Redial liveness check and then
// black-holes its probes, so the gateway cycles eject → recover → re-admit
// → probe timeout — and requires the goroutine count to return to baseline
// after Close: in-flight pings die with their probe, never accumulate.
func TestProbeTimeoutNoGoroutineLeak(t *testing.T) {
	fb := startFakeBackend(t, 1)
	before := runtime.NumGoroutine()

	gw, err := NewGateway(Config{
		Backends:          []Backend{{ID: "flappy", Addr: fb.Addr()}},
		ProbeInterval:     10 * time.Millisecond,
		ProbeTimeout:      40 * time.Millisecond,
		ReadmitBackoff:    5 * time.Millisecond,
		ReadmitMaxBackoff: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	stats := statsOf(gw, "flappy")
	deadline := time.Now().Add(10 * time.Second)
	for stats.readmissions.Load() < 3 {
		if time.Now().After(deadline) {
			gw.Close()
			t.Fatalf("only %d re-admissions after %d ejections; the eject/recover cycle stalled",
				stats.readmissions.Load(), stats.ejections.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cycles := stats.ejections.Load()
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}

	// Every probe timeout spawned a ping goroutine and every recovery
	// attempt a client read loop; all must be gone now. Allow the runtime
	// a moment to retire the final handful.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after %d probe-timeout cycles (baseline %d):\n%s",
				runtime.NumGoroutine(), cycles, before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if stats.readmissions.Load() < 3 || cycles < 3 {
		t.Fatalf("cycle counters implausible: %d ejections, %d readmissions",
			cycles, stats.readmissions.Load())
	}
}
