package cluster

import (
	"fmt"
	"net"
	"sync"

	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// SpawnOptions tunes an in-process backend fleet.
type SpawnOptions struct {
	// Serve configures every backend's session manager.
	Serve serve.Config
	// Record, when non-nil, makes the backends record their sessions: it
	// is handed each backend's ID and fresh wire server before the server
	// listens, and installs the recording hooks on it — normally
	// (*store.Archive).Serve over that backend's archive, which also makes
	// the sessions live-migratable and answers backfills. It is called
	// again on Restart, so a fresh incarnation can record into a fresh
	// archive.
	Record func(backendID string, srv *wire.Server)
}

// spawned is one in-process backend: its own session manager and wire
// server on a loopback listener.
type spawned struct {
	id     string
	mgr    *serve.Manager
	srv    *wire.Server
	addr   string
	killed bool
}

// Spawner runs an in-process fleet of wire backends sharing one plan
// registry — the all-in-one deployment cmd/gesturegateway defaults to, and
// the substrate the e2e harness builds clusters from. Every backend is a
// full gestured node: its own serve.Manager (private shard workers and
// sessions) behind its own wire.Server on a loopback listener, so a
// gateway, cmd/gestureload, or any wire client can target it unchanged.
type Spawner struct {
	reg  *serve.Registry
	opts SpawnOptions

	mu       sync.Mutex
	backends []*spawned
}

// BackendID is the canonical identifier Spawn assigns backend i.
func BackendID(i int) string { return fmt.Sprintf("backend-%d", i) }

// Spawn starts n backends. The registry is shared — plans compile once for
// the whole fleet, the per-backend cost is only managers and listeners.
func Spawn(n int, reg *serve.Registry, opts SpawnOptions) (*Spawner, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: spawn %d backends (want ≥ 1)", n)
	}
	sp := &Spawner{reg: reg, opts: opts}
	for i := 0; i < n; i++ {
		b, err := sp.start(BackendID(i), "127.0.0.1:0")
		if err != nil {
			sp.Close()
			return nil, err
		}
		sp.backends = append(sp.backends, b)
	}
	return sp, nil
}

// start brings up one incarnation of backend id: a fresh manager behind a
// fresh server, with the recording hooks of SpawnOptions.Record, listening
// on addr.
func (sp *Spawner) start(id, addr string) (*spawned, error) {
	mgr, err := serve.NewManager(sp.opts.Serve, sp.reg)
	if err != nil {
		return nil, err
	}
	srv := wire.NewServer(mgr)
	srv.Name = id
	if sp.opts.Record != nil {
		sp.opts.Record(id, srv)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	go srv.Serve(ln)
	return &spawned{id: id, mgr: mgr, srv: srv, addr: ln.Addr().String()}, nil
}

// Backends returns the fleet descriptors for Config.Backends.
func (sp *Spawner) Backends() []Backend {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	out := make([]Backend, len(sp.backends))
	for i, b := range sp.backends {
		out[i] = Backend{ID: b.id, Addr: b.addr}
	}
	return out
}

// Len returns the number of spawned backends (killed ones included).
func (sp *Spawner) Len() int { return len(sp.backends) }

// Addr returns backend i's wire address.
func (sp *Spawner) Addr(i int) string { return sp.backends[i].addr }

// ID returns backend i's identifier.
func (sp *Spawner) ID(i int) string { return sp.backends[i].id }

// Manager exposes backend i's session manager (tests inspect its metrics).
func (sp *Spawner) Manager(i int) *serve.Manager {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.backends[i].mgr
}

// Kill abruptly stops backend i — server, connections, manager — the way a
// crashed process disappears from its peers. Idempotent.
func (sp *Spawner) Kill(i int) {
	sp.mu.Lock()
	b := sp.backends[i]
	if b.killed {
		sp.mu.Unlock()
		return
	}
	b.killed = true
	srv, mgr := b.srv, b.mgr
	sp.mu.Unlock()
	srv.Close()
	mgr.Close()
}

// Restart brings a killed backend back up on the same address — the
// restarted process a recovering cluster re-admits. The incarnation is
// genuinely fresh, exactly like a crashed gestured coming back: a new
// manager (empty session table; the old NFA state died with the kill)
// behind a new server on a re-bound listener, with the recording hooks
// installed again by SpawnOptions.Record.
func (sp *Spawner) Restart(i int) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	b := sp.backends[i]
	if !b.killed {
		return fmt.Errorf("cluster: backend %s is still running", b.id)
	}
	nb, err := sp.start(b.id, b.addr)
	if err != nil {
		return fmt.Errorf("cluster: restarting backend %s on %s: %w", b.id, b.addr, err)
	}
	b.mgr, b.srv, b.killed = nb.mgr, nb.srv, false
	return nil
}

// Close stops every backend still running.
func (sp *Spawner) Close() {
	for i := range sp.backends {
		sp.Kill(i)
	}
}
