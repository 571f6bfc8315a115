// gestureload drives a gestured server: it synthesizes user recordings,
// attaches N remote sessions over a handful of TCP connections, streams the
// tuples in batches, and reports end-to-end throughput plus detection
// latency percentiles (time from handing a detection's final tuple to the
// client library until the detection push arrives back).
//
//	go run ./cmd/gestureload -addr localhost:7474 -sessions 64
//	go run ./cmd/gestureload -addr localhost:7474 -sessions 256 -conns 8 -batch 32 -verify
//
// With -verify, sessions sharing a recording must report byte-identical
// detections — the remote twin of the serving determinism test; divergence
// exits non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"sync"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/obs"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:7474", "gestured server address")
		sessions = flag.Int("sessions", 64, "concurrent remote sessions")
		conns    = flag.Int("conns", 4, "TCP connections to spread sessions over")
		batch    = flag.Int("batch", 64, "tuples per batch frame")
		repeats  = flag.Int("repeats", 3, "gesture performances per recording")
		seed     = flag.Int64("seed", 1, "base random seed")
		verify   = flag.Bool("verify", false, "require identical detections across sessions sharing a recording")
		metrics  = flag.Bool("metrics", false, "fetch and print the server's metrics snapshot as JSON after the run (includes per-backend rows when driving a gateway)")
		trace    = flag.Int("trace", 0, "trace-sample one batch in N for end-to-end stage latency (0 disables; 1024 is a good production rate)")
		jsonOut  = flag.Bool("json", false, "emit the run summary as one JSON object on stdout (suppresses progress output)")
	)
	flag.Parse()
	if err := run(*addr, *sessions, *conns, *batch, *repeats, *seed, *verify, *metrics, *trace, *jsonOut); err != nil {
		log.SetFlags(0)
		log.Fatal(err)
	}
}

// runSummary is the -json output: one object per run, stable field names, so
// a CI step or a dashboard scraper can consume gestureload without parsing
// human-formatted text.
type runSummary struct {
	Addr           string        `json:"addr"`
	Sessions       int           `json:"sessions"`
	Conns          int           `json:"conns"`
	Batch          int           `json:"batch"`
	TraceEvery     int           `json:"trace_every,omitempty"`
	TuplesFed      uint64        `json:"tuples_fed"`
	ElapsedNs      time.Duration `json:"elapsed_ns"`
	TuplesPerSec   float64       `json:"tuples_per_sec"`
	Detections     uint64        `json:"detections"`
	TupleDrops     uint64        `json:"tuple_drops"`
	DetectionDrops uint64        `json:"detection_drops"`
	LatencyP50     time.Duration `json:"latency_p50_ns,omitempty"`
	LatencyP90     time.Duration `json:"latency_p90_ns,omitempty"`
	LatencyP99     time.Duration `json:"latency_p99_ns,omitempty"`
	LatencyMax     time.Duration `json:"latency_max_ns,omitempty"`
	FlushRTTP50    time.Duration `json:"flush_rtt_p50_ns,omitempty"`
	FlushRTTP99    time.Duration `json:"flush_rtt_p99_ns,omitempty"`
	Verified       bool          `json:"verified,omitempty"`
	Diverged       int           `json:"diverged,omitempty"`
}

var gestureNames = kinect.DemoGestureNames()

// sessionResult carries one session's outcome back to the reporter.
type sessionResult struct {
	recording int
	counters  wire.SessionCounters
	detBytes  []byte
	latencies []time.Duration
	err       error
}

func run(addr string, sessions, conns, batch, repeats int, seed int64, verify, metrics bool, trace int, jsonOut bool) error {
	if sessions < 1 || conns < 1 || repeats < 1 {
		return fmt.Errorf("gestureload: -sessions, -conns and -repeats must be positive")
	}
	progressf := fmt.Printf
	if jsonOut {
		progressf = func(string, ...any) (int, error) { return 0, nil }
	}
	if conns > sessions {
		conns = sessions
	}
	start := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)

	// Synthesize a small pool of distinct recordings shared round-robin.
	pool := sessions
	if pool > 8 {
		pool = 8
	}
	profiles := []func() kinect.Profile{kinect.DefaultProfile, kinect.ChildProfile, kinect.TallProfile}
	recordings := make([][]stream.Tuple, pool)
	for i := range recordings {
		player, err := kinect.NewSimulator(profiles[i%len(profiles)](), kinect.DefaultNoise(), seed+int64(i)+100)
		if err != nil {
			return err
		}
		script := []kinect.ScriptItem{{Idle: 500 * time.Millisecond}}
		for r := 0; r < repeats; r++ {
			script = append(script,
				kinect.ScriptItem{Gesture: gestureNames[(i+r)%len(gestureNames)], Opts: kinect.PerformOpts{PathJitter: 15}},
				kinect.ScriptItem{Idle: 700 * time.Millisecond},
			)
		}
		rec, err := player.RunScript(script, start, nil)
		if err != nil {
			return err
		}
		recordings[i] = kinect.ToTuples(rec.Frames)
	}

	clients := make([]*wire.Client, conns)
	for i := range clients {
		cl, err := wire.Dial(addr)
		if err != nil {
			return fmt.Errorf("gestureload: dial %s: %w", addr, err)
		}
		defer cl.Close()
		if trace > 0 {
			cl.FlushRTT = obs.NewHistogram()
		}
		clients[i] = cl
	}

	progressf("driving %d sessions over %d connections (batch %d) against %s\n",
		sessions, conns, batch, addr)

	results := make([]sessionResult, sessions)
	var wg sync.WaitGroup
	feedStart := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = driveSession(clients[i%conns], fmt.Sprintf("load-%04d", i), batch, trace, i%pool, recordings[i%pool])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(feedStart)

	// Aggregate.
	var fed, dropped, detections, detDropped uint64
	var allLat []time.Duration
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return fmt.Errorf("gestureload: session %d: %w", i, r.err)
		}
		fed += r.counters.In
		dropped += r.counters.Dropped
		detections += r.counters.Detections
		detDropped += r.counters.DetectionsDropped
		allLat = append(allLat, r.latencies...)
	}
	summary := runSummary{
		Addr:           addr,
		Sessions:       sessions,
		Conns:          conns,
		Batch:          batch,
		TraceEvery:     trace,
		TuplesFed:      fed,
		ElapsedNs:      elapsed,
		TuplesPerSec:   float64(fed) / elapsed.Seconds(),
		Detections:     detections,
		TupleDrops:     dropped,
		DetectionDrops: detDropped,
	}
	progressf("\nfed %d tuples in %v → %.0f tuples/s aggregate end-to-end\n",
		fed, elapsed.Round(time.Millisecond), summary.TuplesPerSec)
	progressf("detections: %d (%.2f per session), tuple drops: %d, detection drops: %d\n",
		detections, float64(detections)/float64(sessions), dropped, detDropped)
	if len(allLat) > 0 {
		sort.Slice(allLat, func(i, j int) bool { return allLat[i] < allLat[j] })
		pct := func(p float64) time.Duration {
			idx := int(p * float64(len(allLat)-1))
			return allLat[idx].Round(10 * time.Microsecond)
		}
		summary.LatencyP50 = pct(0.50)
		summary.LatencyP90 = pct(0.90)
		summary.LatencyP99 = pct(0.99)
		summary.LatencyMax = allLat[len(allLat)-1].Round(10 * time.Microsecond)
		progressf("detection latency: p50 %v, p90 %v, p99 %v, max %v\n",
			summary.LatencyP50, summary.LatencyP90, summary.LatencyP99, summary.LatencyMax)
	}
	if trace > 0 {
		// Flush-ack RTT from the client library's histograms, merged across
		// connections — the client-side leg of the sampled trace path.
		var merged obs.HistSnapshot
		for _, cl := range clients {
			merged.Merge(cl.FlushRTT.Snapshot())
		}
		if merged.Count > 0 {
			summary.FlushRTTP50 = merged.Quantile(0.50)
			summary.FlushRTTP99 = merged.Quantile(0.99)
			progressf("flush-ack RTT (1/%d sampled): p50 %v, p99 %v over %d flushes\n",
				trace, summary.FlushRTTP50.Round(10*time.Microsecond),
				summary.FlushRTTP99.Round(10*time.Microsecond), merged.Count)
		}
	}

	if verify {
		diverged := 0
		reference := make(map[int][]byte)
		for i := range results {
			r := &results[i]
			want, ok := reference[r.recording]
			if !ok {
				reference[r.recording] = r.detBytes
				continue
			}
			if !bytes.Equal(want, r.detBytes) {
				diverged++
				progressf("DIVERGENCE: session %d disagrees with its recording-%d peers\n", i, r.recording)
			}
		}
		summary.Verified = diverged == 0
		summary.Diverged = diverged
		if diverged > 0 {
			if jsonOut {
				json.NewEncoder(os.Stdout).Encode(summary)
			}
			return fmt.Errorf("gestureload: %d sessions diverged", diverged)
		}
		progressf("verify: all sessions per recording byte-identical ✓\n")
	}

	if metrics && !jsonOut {
		mm, err := clients[0].Metrics()
		if err != nil {
			return fmt.Errorf("gestureload: fetching metrics: %w", err)
		}
		fmt.Printf("\nserver metrics: %s\n", mm)
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(mm); err != nil {
			return err
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	}
	return nil
}

// driveSession feeds one recording through one remote session, tracking the
// wall-clock send time of every tuple so a detection's latency can be
// measured when its final tuple's event time comes back.
func driveSession(cl *wire.Client, id string, batch, trace, recording int, tuples []stream.Tuple) sessionResult {
	res := sessionResult{recording: recording}
	sendTimes := make(map[int64]time.Time, len(tuples))
	var mu sync.Mutex
	rs, err := cl.Attach(id, wire.AttachOptions{
		BatchSize:  batch,
		TraceEvery: trace,
		OnDetection: func(d anduin.Detection) {
			mu.Lock()
			sent, ok := sendTimes[d.End.UnixNano()]
			mu.Unlock()
			if ok {
				res.latencies = append(res.latencies, time.Since(sent))
			}
		},
	})
	if err != nil {
		res.err = err
		return res
	}
	for i := range tuples {
		mu.Lock()
		sendTimes[tuples[i].Ts.UnixNano()] = time.Now()
		mu.Unlock()
		if err := rs.FeedTuple(tuples[i]); err != nil {
			res.err = err
			return res
		}
	}
	counters, err := rs.Detach()
	if err != nil {
		res.err = err
		return res
	}
	res.counters = counters
	dets := rs.TakeDetections()
	res.detBytes, res.err = wire.AppendDetectionFrames(nil, dets)
	return res
}
