package e2e

import (
	"net"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/cluster"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// Options configures a Harness.
type Options struct {
	// Backends is the number of in-process wire backends (default 1).
	Backends int
	// Gateway fronts the backends with a cluster gateway; Addr then points
	// at the gateway instead of backend 0.
	Gateway bool
	// Serve configures every backend's session manager.
	Serve serve.Config
	// Plans maps plan names to query text. Nil registers the learned
	// swipe_right query.
	Plans map[string]string
	// Record archives every session's tuple stream per backend under a
	// test temp dir (read them back with Recorded after Stop).
	Record bool
	// RecorderBuffer overrides the recorder tap buffer (0 = store default).
	RecorderBuffer int
	// VNodes / LoadFactor / ProbeInterval / ProbeTimeout tune the gateway
	// ring and health checks; zero values pick fast test defaults.
	VNodes        int
	LoadFactor    float64
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Readmit enables the gateway's backend recovery loop; the backoff
	// knobs default to fast test values (10ms initial, 100ms cap).
	Readmit           bool
	ReadmitBackoff    time.Duration
	ReadmitMaxBackoff time.Duration
}

// Harness is one in-process serving cluster for end-to-end tests.
type Harness struct {
	t        testing.TB
	Registry *serve.Registry
	Spawner  *cluster.Spawner
	Gateway  *cluster.Gateway // nil unless Options.Gateway

	archives  []*store.Archive
	archiveOf map[string]*store.Archive // live archive per backend ID
	roots     []string
	recBuf    int
	gwAddr    string

	stopOnce sync.Once
}

// Start builds the cluster: registry → backends → optional gateway, with
// teardown registered on t.Cleanup (Stop may be called earlier to flush
// recording archives before reading them).
func Start(t testing.TB, opts Options) *Harness {
	t.Helper()
	if opts.Backends <= 0 {
		opts.Backends = 1
	}
	if opts.Plans == nil {
		opts.Plans = map[string]string{"swipe_right": SwipeQuery(t)}
	}
	h := &Harness{t: t, Registry: serve.NewRegistry()}
	for name, text := range opts.Plans {
		if _, err := h.Registry.Register(name, text); err != nil {
			t.Fatal(err)
		}
	}

	spawnOpts := cluster.SpawnOptions{Serve: opts.Serve}
	if opts.Record {
		h.recBuf = opts.RecorderBuffer
		h.archives = make([]*store.Archive, opts.Backends)
		h.roots = make([]string, opts.Backends)
		h.archiveOf = make(map[string]*store.Archive, opts.Backends)
		for i := range h.archives {
			h.roots[i] = t.TempDir()
			h.newArchive(i)
		}
		spawnOpts.Record = func(backendID string, srv *wire.Server) {
			h.archiveOf[backendID].Serve(srv, h.Registry.Resolve, nil)
		}
	}

	sp, err := cluster.Spawn(opts.Backends, h.Registry, spawnOpts)
	if err != nil {
		t.Fatal(err)
	}
	h.Spawner = sp

	if opts.Gateway {
		if opts.ProbeInterval == 0 {
			opts.ProbeInterval = 50 * time.Millisecond
		}
		if opts.ProbeTimeout == 0 {
			opts.ProbeTimeout = time.Second
		}
		if opts.ReadmitBackoff == 0 {
			opts.ReadmitBackoff = 10 * time.Millisecond
		}
		if opts.ReadmitMaxBackoff == 0 {
			opts.ReadmitMaxBackoff = 100 * time.Millisecond
		}
		gw, err := cluster.NewGateway(cluster.Config{
			Backends:          sp.Backends(),
			Name:              "e2e-gateway",
			VNodes:            opts.VNodes,
			LoadFactor:        opts.LoadFactor,
			ProbeInterval:     opts.ProbeInterval,
			ProbeTimeout:      opts.ProbeTimeout,
			Readmit:           opts.Readmit,
			ReadmitBackoff:    opts.ReadmitBackoff,
			ReadmitMaxBackoff: opts.ReadmitMaxBackoff,
			Logger:            obs.NewLogger(256, func(e obs.Event) { t.Logf("%s", e) }),
		})
		if err != nil {
			sp.Close()
			t.Fatal(err)
		}
		h.Gateway = gw
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			gw.Close()
			sp.Close()
			t.Fatal(err)
		}
		h.gwAddr = ln.Addr().String()
		go gw.Serve(ln)
	}
	t.Cleanup(h.Stop)
	return h
}

// Stop tears the cluster down — gateway, then backends, then recording
// archives (flushing them so Recorded can read complete streams).
// Idempotent; also registered as the test cleanup.
func (h *Harness) Stop() {
	h.stopOnce.Do(func() {
		if h.Gateway != nil {
			h.Gateway.Close()
		}
		h.Spawner.Close()
		for _, arch := range h.archives {
			if err := arch.Close(); err != nil {
				h.t.Errorf("e2e: closing archive: %v", err)
			}
		}
	})
}

// Addr returns the address clients should dial: the gateway when fronting,
// backend 0 otherwise.
func (h *Harness) Addr() string {
	if h.Gateway != nil {
		return h.gwAddr
	}
	return h.Spawner.Addr(0)
}

// Dial connects a wire client to Addr, closed on test cleanup.
func (h *Harness) Dial() *wire.Client {
	h.t.Helper()
	cl, err := wire.Dial(h.Addr())
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { cl.Close() })
	return cl
}

// Manager exposes backend i's session manager.
func (h *Harness) Manager(i int) *serve.Manager { return h.Spawner.Manager(i) }

// KillBackend abruptly stops backend i and flushes its recording archive
// (the recordings of a crashed backend stay readable, like a disk
// surviving its process).
func (h *Harness) KillBackend(i int) {
	h.Spawner.Kill(i)
	if h.archives != nil {
		if err := h.archives[i].Close(); err != nil {
			h.t.Errorf("e2e: closing killed backend %d archive: %v", i, err)
		}
	}
}

// RestartBackend brings a killed backend back up on the same address, so a
// readmitting gateway can recover it. With recording on, the fresh
// incarnation records into a fresh archive over the same root directory —
// the recordings of the dead incarnation stay readable beside the new ones,
// like a disk surviving its process twice over.
func (h *Harness) RestartBackend(i int) {
	h.t.Helper()
	if h.archives != nil {
		h.newArchive(i)
	}
	if err := h.Spawner.Restart(i); err != nil {
		h.t.Fatal(err)
	}
}

// newArchive opens a fresh archive over backend i's root directory, the
// one its next incarnation records into.
func (h *Harness) newArchive(i int) {
	h.archives[i] = store.NewArchive(h.roots[i], kinect.Schema(), store.Options{}, h.recBuf)
	h.archiveOf[cluster.BackendID(i)] = h.archives[i]
}

// RecordRoot returns backend i's archive directory (Record only).
func (h *Harness) RecordRoot(i int) string { return h.roots[i] }

// HasRecording reports whether backend i archived a stream for sessionID.
func (h *Harness) HasRecording(i int, sessionID string) bool {
	return store.Exists(h.roots[i], sessionID)
}

// Recorded reads back every tuple backend i archived for sessionID. Call
// after Stop (or KillBackend for that backend) so the writer has flushed.
func (h *Harness) Recorded(i int, sessionID string) []stream.Tuple {
	h.t.Helper()
	tuples, err := store.ReadAll(h.roots[i], sessionID)
	if err != nil {
		h.t.Fatal(err)
	}
	return tuples
}
