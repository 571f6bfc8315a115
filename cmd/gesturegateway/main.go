// gesturegateway is the cluster front door: it terminates the wire protocol
// and shards remote sessions across a fleet of external gestured processes
// with a bounded-load consistent-hash ring, health-checking each backend,
// re-homing sessions off dead ones and re-admitting a backend once it
// answers pings again — new sessions then drift back to it through the
// ring's load bound. A backend that is down at startup joins the same way
// when it comes up. Clients — cmd/gestureload included — target it exactly
// as they would a single gestured process.
//
//	go run ./cmd/gestured -addr :7474 -name b0 -record-dir rec/b0 &
//	go run ./cmd/gestured -addr :7476 -name b1 -record-dir rec/b1 &
//	go run ./cmd/gesturegateway -addr :7475 -backend b0=localhost:7474 -backend b1=localhost:7476
//	go run ./cmd/gestureload -addr localhost:7475 -sessions 256 -verify
//
// With -record-dir on every gestured, draining a backend through the admin
// plane (-admin-addr) moves its sessions with their state.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gesturecep/internal/cluster"
	"gesturecep/internal/obs"
)

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
	var cfg cluster.Config
	addr := flag.String("addr", ":7475", "TCP listen address for the gateway front")
	flag.Var((*backendFlags)(&cfg.Backends), "backend", "backend gestured as id=host:port (repeatable; at least one)")
	flag.DurationVar(&cfg.ProbeInterval, "probe", 500*time.Millisecond, "health-probe interval (negative disables probing)")
	flag.DurationVar(&cfg.ProbeTimeout, "probe-timeout", 2*time.Second, "health-probe timeout before a backend is ejected")
	flag.DurationVar(&cfg.ReadmitBackoff, "readmit-backoff", 250*time.Millisecond, "initial re-dial delay of the recovery loop (doubles per failed attempt)")
	flag.DurationVar(&cfg.ReadmitMaxBackoff, "readmit-max-backoff", 5*time.Second, "cap on the recovery loop's exponential backoff")
	adminAddr := flag.String("admin-addr", "", "HTTP admin plane listen address (/metrics, /readyz flips with live-backend count, /events, /debug/pprof); empty disables")
	verbose := flag.Bool("v", false, "print the metrics snapshot as JSON on shutdown")
	flag.Parse()
	cfg.Name = "gesturegateway"
	cfg.Logger = obs.NewLogger(256, func(e obs.Event) { log.Printf("%s", e) })
	if err := run(cfg, *addr, *adminAddr, *verbose); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

func run(cfg cluster.Config, addr, adminAddr string, verbose bool) error {
	if len(cfg.Backends) == 0 {
		return fmt.Errorf("gesturegateway: no backends; name each gestured with -backend id=host:port")
	}
	gw, err := cluster.NewGateway(cfg)
	if err != nil {
		return err
	}

	if adminAddr != "" {
		admin, err := obs.StartAdmin(adminAddr, obs.AdminConfig{
			Collect:     gw.WriteProm,
			MetricsJSON: func() any { return gw.Metrics() },
			Healthy:     func() error { return nil }, // the process serves while it runs
			Ready:       gw.Ready,
			Events:      gw.Events,
			Routes:      gw.AdminRoutes(),
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

	live, total := gw.LiveBackends()
	fmt.Printf("gesturegateway listening on %s — %d of %d backends live, probe %v, readmit backoff %v..%v\n",
		addr, live, total, cfg.ProbeInterval, cfg.ReadmitBackoff, cfg.ReadmitMaxBackoff)

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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(mm)
	}
	return nil
}
