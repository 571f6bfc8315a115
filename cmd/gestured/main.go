// gestured is the network ingestion daemon: it learns a set of gestures
// once, compiles each generated query into a shared plan, then serves the
// wire protocol on a TCP listener — remote clients attach sessions, stream
// kinect tuple batches in, and receive detections pushed back.
//
//	go run ./cmd/gestured -addr :7474
//	go run ./cmd/gestured -addr :7474 -shards 8 -policy drop-oldest -queue 128
//	go run ./cmd/gestured -addr :7474 -record-dir recordings
//	go run ./cmd/gestured -addr :7474 -record-dir recordings -retain 24h -compact-every 5m
//
// Drive it with cmd/gestureload. With -record-dir every session's tuple
// stream is additionally written to a durable stream store; replay or
// backfill it afterwards with cmd/gesturereplay (the recording archive also
// answers the wire protocol's backfill requests, so `gesturereplay -mode
// fleet-backfill` can evaluate this server's recordings remotely). -retain
// bounds how much recorded history the archive keeps: a background
// compactor drops and rewrites expired segments every -compact-every,
// synchronized against live readers and recorders.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/store"
	"gesturecep/internal/wire"
)

var gestureNames = kinect.DemoGestureNames()

func main() {
	var (
		addr      = flag.String("addr", ":7474", "TCP listen address")
		name      = flag.String("name", "", "server name reported in ping replies (how a cluster gateway labels this backend)")
		shards    = flag.Int("shards", 0, "ingestion shards (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "per-shard queue depth, in tuples")
		policy    = flag.String("policy", "block", "backpressure policy: block or drop-oldest")
		gestures  = flag.Int("gestures", 4, "gestures to learn and register (1-8)")
		seed      = flag.Int64("seed", 1, "trainer random seed")
		recordDir = flag.String("record-dir", "", "record every session's tuple stream into this stream-store directory (replay with cmd/gesturereplay)")
		retain    = flag.Duration("retain", 0, "drop recorded history older than this event-time age (0 keeps everything; needs -record-dir)")
		compactEv = flag.Duration("compact-every", time.Minute, "background compaction interval when -retain is set")
		adminAddr = flag.String("admin-addr", "", "HTTP admin plane listen address (/metrics, /metrics.json, /healthz, /readyz, /debug/pprof); empty disables")
		verbose   = flag.Bool("v", false, "print the per-shard metric table on shutdown")
	)
	flag.Parse()
	if err := run(*addr, *name, *shards, *queue, *policy, *gestures, *seed, *recordDir, *retain, *compactEv, *adminAddr, *verbose); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

func run(addr, name string, shards, queue int, policyName string, gestures int, seed int64, recordDir string, retain, compactEvery time.Duration, adminAddr string, verbose bool) error {
	if gestures < 1 || gestures > len(gestureNames) {
		return fmt.Errorf("gestured: -gestures must be 1..%d", len(gestureNames))
	}
	if retain > 0 && recordDir == "" {
		return fmt.Errorf("gestured: -retain needs -record-dir")
	}
	if retain > 0 && compactEvery <= 0 {
		return fmt.Errorf("gestured: -compact-every must be positive")
	}
	pol, err := serve.ParsePolicy(policyName)
	if err != nil {
		return err
	}

	// Learn each gesture once; every remote session shares the plans.
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

	m, err := serve.NewManager(serve.Config{Shards: shards, QueueDepth: queue, Policy: pol}, reg)
	if err != nil {
		return err
	}
	defer m.Close()
	srv := wire.NewServer(m)
	srv.Name = name
	ins := serve.NewInstruments()
	m.SetInstruments(ins)
	srv.BatchDecode = obs.NewHistogram()
	srv.Ingress = obs.NewHistogram()

	var arch *store.Archive
	var comp *store.Compactor
	if recordDir != "" {
		// The archive records every session, makes sessions live-migratable
		// (what lets a gateway drain this server with state), and answers
		// the wire protocol's backfill requests over the recordings
		// (gesturereplay -mode fleet-backfill, or a cluster gateway).
		arch = store.NewArchive(recordDir, kinect.Schema(), store.Options{}, 0)
		defer arch.Close()
		arch.Serve(srv, reg.Resolve, func(err error) { log.Printf("gestured: %v", err) })
		if retain > 0 {
			comp = arch.NewCompactor(store.RetentionPolicy{MaxAge: retain})
			stop := comp.Start(compactEvery, func(err error) {
				log.Printf("gestured: compaction: %v", err)
			})
			defer stop()
			fmt.Printf("retaining %v of recorded history (compacting every %v)\n", retain, compactEvery)
		}
		fmt.Printf("recording sessions into %s\n", recordDir)
	}

	if adminAddr != "" {
		admin, err := obs.StartAdmin(adminAddr, obs.AdminConfig{
			Collect: func(w *obs.PromWriter) {
				m.Metrics().WriteProm(w)
				ins.WriteProm(w)
				w.Histogram("wire_batch_decode_seconds", "FrameBatch decode time of trace-sampled batches.", nil, srv.BatchDecode.Snapshot())
				w.Histogram("wire_ingress_seconds", "Client-send to server-decode latency of trace-sampled batches.", nil, srv.Ingress.Snapshot())
				if arch != nil {
					arch.WriteProm(w)
				}
				if comp != nil {
					comp.WriteProm(w)
				}
			},
			MetricsJSON: func() any {
				return struct {
					Serve  serve.Metrics            `json:"serve"`
					Stages map[string]obs.HistStats `json:"stages,omitempty"`
				}{m.Metrics(), ins.Stats()}
			},
			Healthy: func() error {
				if m.Closed() {
					return fmt.Errorf("gestured: manager closed")
				}
				return nil
			},
			Ready: func() error {
				if m.Closed() {
					return fmt.Errorf("gestured: manager closed")
				}
				return nil
			},
		})
		if err != nil {
			return err
		}
		defer admin.Close()
		fmt.Printf("admin plane on http://%s/metrics\n", admin.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(addr) }()

	fmt.Printf("gestured listening on %s — %d plans, %d shards, policy %s, queue %d\n",
		addr, reg.Len(), m.Shards(), pol, queue)

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("\n%v: shutting down\n", sig)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	mm := m.Metrics()
	fmt.Printf("served %s\n", mm)
	if verbose {
		fmt.Print(mm.Table())
	}
	return nil
}
