// gesturereplay drives the durable stream store from the command line: it
// lists recorded streams, replays a recording back through a serving
// session (at wall-clock, scaled or maximum speed), backfills compiled
// gesture plans over recorded history offline — the batch half of the
// lambda-style live+historical system — or fans a backfill out across a
// fleet of running gestured backends.
//
//	go run ./cmd/gesturereplay -dir recordings -list
//	go run ./cmd/gesturereplay -dir recordings -stream user-1 -mode replay -speed 0
//	go run ./cmd/gesturereplay -dir recordings -stream user-1 -mode replay -offset 3000 -limit 1000
//	go run ./cmd/gesturereplay -dir recordings -stream user-1 -mode backfill -gestures 8
//	go run ./cmd/gesturereplay -mode fleet-backfill -backends :7001,:7002,:7003 -streams user-1,user-2
//
// Plans are learned from the same deterministic trainer gestured uses, so
// running with the same -gestures/-seed evaluates the identical compiled
// queries the live server served — replaying a stream recorded by
// `gestured -record-dir` reproduces its detections byte for byte. Raising
// -gestures beyond what the server had deployed is the offline-backfill
// workflow: new queries evaluated over old data.
//
// fleet-backfill needs no local plans or recordings: each named backend
// evaluates its own archive under its own registered plans (narrow with
// -fleet-gestures), and the detections merge deterministically in sorted
// stream order — byte-identical to a single-node backfill over the union of
// the fleet's archives. A backend that does not answer is left out, as the
// gateway leaves out any backend that is down: streams only it archives are
// reported missing, and with no backend answering the run fails with "no
// backend in service".
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cluster"
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
		dir       = flag.String("dir", "recordings", "stream-store directory")
		name      = flag.String("stream", "", "recorded stream to replay or backfill")
		mode      = flag.String("mode", "replay", "replay (through a serving session), backfill (offline plan evaluation), or fleet-backfill (fan out across -backends)")
		list      = flag.Bool("list", false, "list recorded streams and exit (summaries come from the sparse segment indexes; unindexed streams fall back to a scan)")
		speed     = flag.Float64("speed", 0, "replay speed: 0 = max, 1 = wall clock, 2 = double speed")
		offset    = flag.Uint64("offset", 0, "skip this many tuples before replaying (seeks via the sparse index)")
		limit     = flag.Uint64("limit", 0, "stop the replay after this many tuples (0 = all)")
		gestures  = flag.Int("gestures", 4, "gestures to learn and evaluate (1-8)")
		seed      = flag.Int64("seed", 1, "trainer random seed (match the recording server's)")
		backends  = flag.String("backends", "", "comma-separated backend wire addresses (fleet-backfill)")
		streams   = flag.String("streams", "", "comma-separated recorded stream names (fleet-backfill)")
		fleetGest = flag.String("fleet-gestures", "", "comma-separated plan names the backends evaluate (fleet-backfill; empty = every plan each backend has registered)")
		adminAddr = flag.String("admin-addr", "", "HTTP admin plane listen address during replay (/metrics with replay progress, /debug/pprof); empty disables")
		verbose   = flag.Bool("v", false, "print every detection")
	)
	flag.Parse()
	if err := run(opts{
		dir: *dir, name: *name, mode: *mode, list: *list, speed: *speed,
		offset: *offset, limit: *limit, gestures: *gestures, seed: *seed,
		backends: *backends, streams: *streams, fleetGestures: *fleetGest,
		adminAddr: *adminAddr, verbose: *verbose,
	}); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

type opts struct {
	dir, name, mode   string
	list              bool
	speed             float64
	offset, limit     uint64
	gestures          int
	seed              int64
	backends, streams string
	fleetGestures     string
	adminAddr         string
	verbose           bool
}

func run(o opts) error {
	if o.list {
		return listStreams(o.dir)
	}
	if o.mode == "fleet-backfill" {
		return fleetBackfill(o)
	}
	if o.name == "" {
		return fmt.Errorf("gesturereplay: -stream is required (or -list)")
	}
	if o.gestures < 1 || o.gestures > len(gestureNames) {
		return fmt.Errorf("gesturereplay: -gestures must be 1..%d", len(gestureNames))
	}
	// The same -gestures/-seed as the recording server yield its plans.
	fmt.Printf("learning %d gestures ... ", o.gestures)
	begin := time.Now()
	learned, err := learn.Demo(o.gestures, o.seed)
	if err != nil {
		return err
	}
	reg := serve.NewRegistry()
	for _, res := range learned {
		if _, err := reg.Register(res.Model.Name, res.QueryText); err != nil {
			return err
		}
	}
	fmt.Printf("done in %v\n", time.Since(begin).Round(time.Millisecond))
	switch o.mode {
	case "replay":
		return replay(o, reg)
	case "backfill":
		return backfill(o.dir, o.name, reg, o.verbose)
	default:
		return fmt.Errorf("gesturereplay: unknown mode %q (want replay, backfill or fleet-backfill)", o.mode)
	}
}

func listStreams(dir string) error {
	names, err := store.ListStreams(dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		fmt.Printf("no recorded streams under %s\n", dir)
		return nil
	}
	fmt.Printf("%-24s %6s %10s %12s %10s %10s %8s\n",
		"stream", "segs", "records", "tuples", "bytes", "span", "indexed")
	for _, n := range names {
		info, err := store.Info(dir, n)
		if err != nil {
			return fmt.Errorf("gesturereplay: stream %q: %w", n, err)
		}
		var span time.Duration
		if !info.First.IsZero() {
			span = info.Last.Sub(info.First)
		}
		fmt.Printf("%-24s %6d %10d %12d %10d %10v %8v\n",
			n, info.Segments, info.Records, info.Tuples, info.Bytes,
			span.Round(time.Millisecond), info.Indexed)
	}
	return nil
}

func printDetection(d anduin.Detection) {
	fmt.Printf("  %s  %s .. %s  (%v)\n",
		d.Gesture, d.Start.Format("15:04:05.000"), d.End.Format("15:04:05.000"),
		d.Duration().Round(time.Millisecond))
}

func replay(o opts, reg *serve.Registry) error {
	r, err := store.OpenReader(o.dir, o.name)
	if err != nil {
		return err
	}
	defer r.Close()
	m, err := serve.NewManager(serve.Config{}, reg)
	if err != nil {
		return err
	}
	defer m.Close()
	sess, err := m.CreateSession("replay:" + o.name)
	if err != nil {
		return err
	}
	var replayed atomic.Uint64
	begin := time.Now()
	if o.adminAddr != "" {
		admin, err := obs.StartAdmin(o.adminAddr, obs.AdminConfig{
			Collect: func(w *obs.PromWriter) {
				m.Metrics().WriteProm(w)
				n := replayed.Load()
				w.Gauge("replay_tuples", "Tuples replayed so far.", nil, float64(n))
				w.Gauge("replay_tuples_per_second", "Replay throughput since start.", nil,
					float64(n)/time.Since(begin).Seconds())
			},
			MetricsJSON: func() any { return m.Metrics() },
		})
		if err != nil {
			return err
		}
		defer admin.Close()
		fmt.Printf("admin plane on http://%s/metrics\n", admin.Addr())
	}
	stats, err := store.Replay(r, sess.FeedTuple, store.ReplayOptions{
		Speed:    o.speed,
		Offset:   o.offset,
		Limit:    o.limit,
		Progress: func(tuples uint64) { replayed.Store(tuples) },
	})
	sess.Flush()
	if err != nil {
		return err
	}
	dets := sess.Detections()
	if o.verbose {
		for _, d := range dets {
			printDetection(d)
		}
	}
	rate := float64(stats.Tuples) / stats.Duration.Seconds()
	window := ""
	if o.offset > 0 || o.limit > 0 {
		window = fmt.Sprintf(" (window [%d, +%d))", o.offset, stats.Tuples)
	}
	fmt.Printf("replayed %d tuples%s (%d records, event span %v) in %v — %.0f tuples/s, %d detections\n",
		stats.Tuples, window, stats.Records, stats.EventSpan.Round(time.Millisecond),
		stats.Duration.Round(time.Millisecond), rate, len(dets))
	return nil
}

func backfill(dir, name string, reg *serve.Registry, verbose bool) error {
	r, err := store.OpenReader(dir, name)
	if err != nil {
		return err
	}
	defer r.Close()
	plans, err := reg.Resolve()
	if err != nil {
		return err
	}
	begin := time.Now()
	var onDet func(anduin.Detection)
	if verbose {
		onDet = printDetection
	}
	dets, err := store.Backfill(r, plans, store.BackfillOptions{OnDetection: onDet})
	if err != nil {
		return err
	}
	records, tuples := r.Counters()
	elapsed := time.Since(begin)
	fmt.Printf("backfilled %d plans over %d tuples (%d records) in %v — %.0f tuples/s, %d detections\n",
		len(plans), tuples, records, elapsed.Round(time.Millisecond),
		float64(tuples)/elapsed.Seconds(), len(dets))
	return nil
}

// splitList parses a comma-separated flag into trimmed non-empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// fleetBackfill stands up an ad-hoc gateway over the named backends (no
// probing, no serving — just the ring and the backfill fan-out) and runs one
// fleet backfill through the same code path the gateway's POST /backfill uses.
func fleetBackfill(o opts) error {
	addrs := splitList(o.backends)
	if len(addrs) == 0 {
		return fmt.Errorf("gesturereplay: fleet-backfill needs -backends")
	}
	streams := splitList(o.streams)
	if len(streams) == 0 {
		return fmt.Errorf("gesturereplay: fleet-backfill needs -streams")
	}
	fleet := make([]cluster.Backend, len(addrs))
	for i, addr := range addrs {
		fleet[i] = cluster.Backend{ID: addr, Addr: addr}
	}
	gw, err := cluster.NewGateway(cluster.Config{
		Backends:      fleet,
		Name:          "gesturereplay",
		ProbeInterval: -1, // one-shot batch job; no health plane needed
	})
	if err != nil {
		return err
	}
	defer gw.Close()
	begin := time.Now()
	res, err := gw.Backfill(wire.BackfillRequest{
		Streams:  streams,
		Gestures: splitList(o.fleetGestures),
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(begin)
	sources := make([]string, 0, len(res.Sources))
	for id, names := range res.Sources {
		sources = append(sources, fmt.Sprintf("%s=%d", id, len(names)))
	}
	sort.Strings(sources)
	fmt.Printf("fleet backfill over %d backends: %d/%d streams, %d records, %d tuples, %d detections in %v (sources %s)\n",
		len(addrs), res.Found, len(res.Streams), res.Records, res.Tuples,
		res.DetectionTotal(), elapsed.Round(time.Millisecond),
		strings.Join(sources, " "))
	for i, name := range res.Streams {
		if o.verbose {
			fmt.Printf("%s: %d detections\n", name, len(res.Detections[i]))
			for _, d := range res.Detections[i] {
				printDetection(d)
			}
		}
	}
	if len(res.Missing) > 0 {
		return fmt.Errorf("gesturereplay: %d streams not archived by any backend: %s",
			len(res.Missing), strings.Join(res.Missing, ", "))
	}
	return nil
}
