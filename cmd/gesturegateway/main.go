// gesturegateway is the cluster front door: it terminates the wire
// protocol and shards remote sessions across a fleet of gestured backends
// with a bounded-load consistent-hash ring, health-checking each backend,
// re-homing sessions off dead ones, and (by default) re-admitting a
// backend once it answers pings again — new sessions then drift back to it
// through the ring's load bound. Clients — cmd/gestureload included —
// target it exactly as they would a single gestured process.
//
// All-in-one mode spawns the backends in-process (learning the gestures
// once, sharing the compiled plans across the fleet):
//
//	go run ./cmd/gesturegateway -addr :7475 -backends 3
//	go run ./cmd/gestureload -addr localhost:7475 -sessions 256 -verify
//
// Fronting external gestured processes instead:
//
//	go run ./cmd/gestured -addr :7474 -name b0 &
//	go run ./cmd/gestured -addr :7476 -name b1 &
//	go run ./cmd/gesturegateway -addr :7475 -backend b0=localhost:7474 -backend b1=localhost:7476
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gesturecep/internal/cluster"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

var gestureNames = kinect.DemoGestureNames()

// backendFlags collects repeated -backend id=addr values.
type backendFlags []cluster.Backend

func (b *backendFlags) String() string {
	parts := make([]string, len(*b))
	for i, be := range *b {
		parts[i] = be.ID + "=" + be.Addr
	}
	return strings.Join(parts, ",")
}

func (b *backendFlags) Set(v string) error {
	id, addr, ok := strings.Cut(v, "=")
	if !ok {
		id, addr = v, v // a bare address names itself
	}
	*b = append(*b, cluster.Backend{ID: id, Addr: addr})
	return nil
}

func main() {
	var external backendFlags
	var (
		addr         = flag.String("addr", ":7475", "TCP listen address for the gateway front")
		backends     = flag.Int("backends", 3, "in-process backends to spawn (ignored with -backend)")
		vnodes       = flag.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the ring")
		loadFactor   = flag.Float64("load-factor", cluster.DefaultLoadFactor, "bounded-load factor c (max sessions per backend = ceil(c × average))")
		probe        = flag.Duration("probe", 500*time.Millisecond, "health-probe interval (negative disables probing)")
		probeTimeout = flag.Duration("probe-timeout", 2*time.Second, "health-probe timeout before a backend is ejected")
		readmit      = flag.Bool("readmit", true, "re-admit ejected backends once they answer pings again (re-dial with capped exponential backoff)")
		backoff      = flag.Duration("readmit-backoff", 250*time.Millisecond, "initial re-dial delay of the recovery loop (doubles per failed attempt)")
		maxBackoff   = flag.Duration("readmit-max-backoff", 5*time.Second, "cap on the recovery loop's exponential backoff")
		tolerateDown = flag.Bool("tolerate-down", false, "start even if some backends are unreachable and admit them when they come up (external backends)")
		shards       = flag.Int("shards", 0, "ingestion shards per spawned backend (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 256, "per-shard queue depth of spawned backends")
		policy       = flag.String("policy", "block", "spawned backends' backpressure policy: block or drop-oldest")
		gestures     = flag.Int("gestures", 4, "gestures to learn for spawned backends (1-8)")
		seed         = flag.Int64("seed", 1, "trainer random seed")
		recordDir    = flag.String("record-dir", "", "record every spawned backend's sessions under this directory (one archive per backend)")
		adminAddr    = flag.String("admin-addr", "", "HTTP admin plane listen address (/metrics, /readyz flips with live-backend count, /events, /debug/pprof); empty disables")
		verbose      = flag.Bool("v", false, "print the per-backend metric table on shutdown")
	)
	flag.Var(&external, "backend", "external backend as id=host:port (repeatable; disables spawning)")
	flag.Parse()
	health := healthConfig{
		probe:        *probe,
		probeTimeout: *probeTimeout,
		readmit:      *readmit,
		backoff:      *backoff,
		maxBackoff:   *maxBackoff,
		tolerateDown: *tolerateDown,
	}
	if err := run(*addr, external, *backends, *vnodes, *loadFactor, health,
		*shards, *queue, *policy, *gestures, *seed, *recordDir, *adminAddr, *verbose); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

// healthConfig groups the probing and recovery flags.
type healthConfig struct {
	probe        time.Duration
	probeTimeout time.Duration
	readmit      bool
	backoff      time.Duration
	maxBackoff   time.Duration
	tolerateDown bool
}

func run(addr string, external []cluster.Backend, backends, vnodes int, loadFactor float64,
	health healthConfig, shards, queue int, policyName string,
	gestures int, seed int64, recordDir, adminAddr string, verbose bool) error {
	if health.tolerateDown && len(external) == 0 {
		// Spawned backends are in-process: if one failed to come up, Spawn
		// already failed. Tolerance is for external fleets.
		return fmt.Errorf("gesturegateway: -tolerate-down only makes sense with external -backend fleets")
	}
	fleet := external
	if len(external) == 0 {
		if gestures < 1 || gestures > len(gestureNames) {
			return fmt.Errorf("gesturegateway: -gestures must be 1..%d", len(gestureNames))
		}
		pol, err := serve.ParsePolicy(policyName)
		if err != nil {
			return err
		}

		// Learn each gesture once; the whole fleet shares the plans.
		fmt.Printf("learning %d gestures ... ", gestures)
		learnStart := time.Now()
		learned, err := learn.Demo(gestures, seed)
		if err != nil {
			return err
		}
		reg := serve.NewRegistry()
		for _, res := range learned {
			if _, err := reg.Register(res.Model.Name, res.QueryText); err != nil {
				return err
			}
		}
		fmt.Printf("done in %v\n", time.Since(learnStart).Round(time.Millisecond))

		opts := cluster.SpawnOptions{Serve: serve.Config{Shards: shards, QueueDepth: queue, Policy: pol}}
		var archives []*store.Archive
		if recordDir != "" {
			archiveOf := make(map[string]*store.Archive, backends)
			for i := 0; i < backends; i++ {
				id := cluster.BackendID(i)
				archiveOf[id] = store.NewArchive(recordDir+"/"+id, store.Options{}, 0)
				archives = append(archives, archiveOf[id])
			}
			opts.TapSessions = func(backendID string) func(string) (func(stream.Tuple), func(bool), error) {
				arch := archiveOf[backendID]
				return func(sessionID string) (func(stream.Tuple), func(bool), error) {
					rec, err := arch.Record(sessionID, kinect.Schema())
					if err != nil {
						return nil, nil, err
					}
					return rec.Tap(), func(aborted bool) {
						end := arch.Release
						if aborted {
							end = arch.Abort
						}
						if err := end(rec); err != nil {
							log.Printf("gesturegateway: recording %q: %v", rec.Stream(), err)
						}
					}, nil
				}
			}
			// Recording makes sessions live-migratable: the migration source
			// syncs a session's recorder and streams the recording back out,
			// which is what lets /backends/drain move sessions with state.
			// Readers come from arch.OpenReader so they hold the archive's
			// per-stream read lock against background compaction.
			opts.MigrateSource = func(backendID string) func(string) (wire.HistoryReader, uint64, error) {
				arch := archiveOf[backendID]
				return func(sessionID string) (wire.HistoryReader, uint64, error) {
					rec, ok := arch.LiveRecorder(sessionID)
					if !ok {
						return nil, 0, fmt.Errorf("gesturegateway: no live recording for session %q on %s", sessionID, backendID)
					}
					if err := rec.Sync(); err != nil {
						return nil, 0, err
					}
					r, err := arch.OpenReader(rec.Stream())
					if err != nil {
						return nil, 0, err
					}
					return r, rec.Recorded(), nil
				}
			}
			// Each backend answers wire backfill requests over its own
			// archive, which is what POST /backfill on the admin plane (and
			// gesturereplay -mode fleet-backfill) fans out across.
			opts.Backfill = func(backendID string) wire.BackfillFunc {
				arch := archiveOf[backendID]
				return store.NewWireBackfillSource(reg.Resolve, arch.OpenReader)
			}
		}
		sp, err := cluster.Spawn(backends, reg, opts)
		if err != nil {
			return err
		}
		defer sp.Close()
		for _, arch := range archives {
			defer arch.Close()
		}
		if recordDir != "" {
			fmt.Printf("recording sessions under %s (one archive per backend)\n", recordDir)
		}
		fleet = sp.Backends()
		fmt.Printf("spawned %d backends, %d plans, policy %s\n", backends, reg.Len(), pol)
	}

	gw, err := cluster.NewGateway(cluster.Config{
		Backends:          fleet,
		Name:              "gesturegateway",
		VNodes:            vnodes,
		LoadFactor:        loadFactor,
		ProbeInterval:     health.probe,
		ProbeTimeout:      health.probeTimeout,
		Readmit:           health.readmit,
		ReadmitBackoff:    health.backoff,
		ReadmitMaxBackoff: health.maxBackoff,
		TolerateDown:      health.tolerateDown,
		Logger:            obs.NewLogger(256, func(e obs.Event) { log.Printf("%s", e) }),
	})
	if err != nil {
		return err
	}

	if adminAddr != "" {
		admin, err := obs.StartAdmin(adminAddr, obs.AdminConfig{
			Collect: gw.WriteProm,
			MetricsJSON: func() any {
				return struct {
					Cluster   serve.Metrics            `json:"cluster"`
					Forward   map[string]obs.HistStats `json:"forward,omitempty"`
					Migration cluster.MigrationStats   `json:"migration"`
					Backfill  cluster.BackfillStats    `json:"backfill"`
				}{gw.Metrics(), gw.ForwardStats(), gw.MigrationStats(), gw.BackfillStats()}
			},
			Healthy: func() error { return nil }, // the process serves while it runs
			Ready:   gw.Ready,
			Events:  gw.Events,
			Routes:  gw.AdminRoutes(),
		})
		if err != nil {
			gw.Close()
			return err
		}
		defer admin.Close()
		fmt.Printf("admin plane on http://%s/metrics (membership: /backends, /backends/{add,drain,remove}; /backfill; every change in /events)\n", admin.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- gw.ListenAndServe(addr) }()

	readmitDesc := "readmit off"
	if health.readmit {
		readmitDesc = fmt.Sprintf("readmit backoff %v..%v", health.backoff, health.maxBackoff)
	}
	fmt.Printf("gesturegateway listening on %s — %d backends, %d vnodes, load factor %.2f, probe %v, %s\n",
		addr, len(fleet), vnodes, loadFactor, health.probe, readmitDesc)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("\n%v: shutting down\n", sig)
	}
	mm := gw.Metrics()
	if err := gw.Close(); err != nil {
		return err
	}
	fmt.Printf("served %s\n", mm)
	if verbose {
		fmt.Print(mm.Table())
	}
	return nil
}
