package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/obs"
	"gesturecep/internal/serve"
	"gesturecep/internal/wire"
)

// workload is one traffic mix against one daemon topology. Every daemon
// runs -shards 2 -policy block; the loader always uses two connections and
// two feeder goroutines, one per core of the reference host.
type workload struct {
	name     string
	gestures int  // -gestures of every backend
	fleet    bool // gateway in front of two backends, else one backend
	record   bool // backend records sessions; the run ends with a backfill
	paced    bool // open loop at the Kinect rate, else closed loop
	sessions int
	batch    int
}

var workloads = []workload{
	{name: "direct_saturate", gestures: 8, sessions: 16, batch: 64},
	{name: "fleet_saturate", gestures: 1, fleet: true, sessions: 16, batch: 64},
	{name: "fleet_paced", gestures: 4, fleet: true, paced: true, sessions: 256, batch: 1},
	{name: "record_backfill", gestures: 4, record: true, sessions: 16, batch: 64},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	numConns   = 2
	traceEvery = 64 // the traced phase samples one batch in 64

	// The warm-up pass of set-up: warmSessions closed-loop sessions of
	// warmRounds 64-tuple batches each, detached before measuring.
	warmSessions = 4
	warmRounds   = 40
	warmBatch    = 64
)

// inputs is everything generated from the seed before any daemon starts.
type inputs struct {
	gestures []learned
	recs     []*recording
}

// rig is one running topology with the loader's connections to it.
type rig struct {
	w        workload
	backends []*daemon
	gateway  *daemon // nil on a direct topology
	conns    []*counted
	sent     uint64 // tuples fed into the topology so far, all sessions
}

func (r *rig) front() *daemon {
	if r.gateway != nil {
		return r.gateway
	}
	return r.backends[0]
}

func (r *rig) daemons() []*daemon {
	if r.gateway != nil {
		return append([]*daemon{r.gateway}, r.backends...)
	}
	return r.backends
}

// counted is a client connection that counts the bytes it writes.
type counted struct {
	*wire.Client
	conn *countingConn
}

type countingConn struct {
	net.Conn
	written atomic.Uint64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(uint64(n))
	return n, err
}

func dial(addr string) (*counted, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	return &counted{Client: wire.NewClient(cc), conn: cc}, nil
}

func dialAll(addr string) ([]*counted, error) {
	conns := make([]*counted, numConns)
	for i := range conns {
		var err error
		if conns[i], err = dial(addr); err != nil {
			return nil, err
		}
	}
	return conns, nil
}

func closeAll(conns []*counted) {
	for _, c := range conns {
		c.Close()
	}
}

// startRig spawns the workload's topology and connects the loader to it.
// seq keeps names unique across the set-up repetitions of one run.
func startRig(sup *supervisor, w workload, seq int, admin bool) (*rig, error) {
	r := &rig{w: w}
	args := []string{"-gestures", strconv.Itoa(w.gestures), "-shards", "2", "-policy", "block", "-seed", "1"}
	if w.record {
		args = append(args, "-record-dir", filepath.Join(sup.tmp, fmt.Sprintf("archive-%d", seq)))
	}
	n := 1
	if w.fleet {
		n = 2
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("b%d", i)
		d, err := sup.startDaemon(fmt.Sprintf("%s-%d", id, seq), "gestured", admin, append(args, "-name", id)...)
		if err != nil {
			return nil, err
		}
		r.backends = append(r.backends, d)
	}
	if w.fleet {
		var gwArgs []string
		for i, d := range r.backends {
			gwArgs = append(gwArgs, "-backend", fmt.Sprintf("b%d=%s", i, d.addr))
		}
		var err error
		if r.gateway, err = sup.startDaemon(fmt.Sprintf("gw-%d", seq), "gesturegateway", admin, gwArgs...); err != nil {
			return nil, err
		}
	}
	var err error
	r.conns, err = dialAll(r.front().addr)
	return r, err
}

// setUp is what setup_s times: spawn the topology, wait until every daemon
// has learned its gestures and answers a ping, attach the measured
// sessions, and run the fixed warm-up pass. Building the binaries and
// generating the inputs are not part of it.
func setUp(sup *supervisor, w workload, in *inputs, seq int, admin bool) (*rig, []*session, time.Duration, error) {
	start := time.Now()
	r, err := startRig(sup, w, seq, admin)
	if err != nil {
		return nil, nil, 0, err
	}
	sessions, err := attachSessions(r.conns, in.recs, "m", w.sessions, w.batch, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	warm, err := attachSessions(r.conns, in.recs, "w", warmSessions, warmBatch, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	r.feedAll(warm, func(c int) {
		feedClosed(ofConn(warm, c, numConns), func(round int) bool { return round >= warmRounds })
	})
	for _, s := range warm {
		if s.err != nil {
			return nil, nil, 0, fmt.Errorf("warm-up %s: %w", s.id, s.err)
		}
	}
	return r, sessions, time.Since(start), nil
}

// feedAll runs one feeder goroutine per connection and accounts what the
// sessions fed.
func (r *rig) feedAll(sessions []*session, feeder func(conn int)) {
	var wg sync.WaitGroup
	for c := 0; c < numConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			feeder(c)
		}(c)
	}
	wg.Wait()
	for _, s := range sessions {
		r.sent += uint64(s.fed)
	}
}

// recordIngestShare is the percentage of a record-workload phase spent
// ingesting; the backfill of what was recorded takes about as long again.
// It keeps the archive (376 B per tuple, ~0.8 GB in a 10 s run) below the
// kernel's background write-back threshold on the 16 GB reference host, so
// the page cache, not the disk, is what the workload measures.
const recordIngestShare = 40

// numWindows is how many equal windows a measured phase is cut into.
// Throughput and CPU cost are reported as the median over the windows, so a
// scheduler stall or a noisy neighbour costs one window, not the run.
const numWindows = 10

// window is what the loader handed over and the daemons burnt in one slice
// of a phase.
type window struct {
	seconds float64
	tuples  float64
	cpu     float64 // CPU seconds, all daemons
}

// phase is one measured stretch of load.
type phase struct {
	sessions []*session
	fed      int
	slowdown float64             // effective CPU speed during the phase, see calib.go
	windows  []window            // the full windows of the feeding time
	cpu      map[*daemon]float64 // CPU seconds each daemon spent
	loadCPU  float64             // CPU seconds the benchmark itself spent
	late     []time.Duration     // open loop: how late each send left
	bytes    uint64              // bytes the loader wrote
	backfill *backfillOutcome    // record workload only
	flushRTT obs.HistSnapshot    // when the phase's connections carried one
}

// runPhase drives the attached sessions for the given time and returns once
// every session is detached.
func (r *rig) runPhase(conns []*counted, sessions []*session, seconds float64) (*phase, error) {
	ph := &phase{sessions: sessions, cpu: make(map[*daemon]float64)}
	before, err := r.cpuNow()
	if err != nil {
		return nil, err
	}
	var bytesBefore uint64
	for _, c := range conns {
		bytesBefore += c.conn.written.Load()
	}
	loadBefore := selfCPU()
	length := time.Duration(seconds * float64(time.Second))
	if r.w.record {
		length = length * recordIngestShare / 100
	}
	var meter atomic.Uint64
	for _, s := range sessions {
		s.meter = &meter
	}
	start := time.Now()
	sampled := make(chan error, 1)
	go func() { sampled <- r.sampleWindows(ph, &meter, start, length/numWindows) }()
	stopCalib := make(chan struct{})
	calibrated := make(chan float64, 1)
	go func() { calibrated <- slowdownDuring(stopCalib) }()
	if r.w.paced {
		late := make([][]time.Duration, numConns)
		for i, s := range sessions {
			s.period = framePeriod
			s.first = start.Add(time.Duration(i) * framePeriod / time.Duration(len(sessions)))
		}
		r.feedAll(sessions, func(c int) {
			late[c] = feedPaced(ofConn(sessions, c, numConns), start,
				dueSchedule(c, numConns, len(sessions), framePeriod, length))
		})
		for _, l := range late {
			ph.late = append(ph.late, l...)
		}
	} else {
		deadline := start.Add(length)
		r.feedAll(sessions, func(c int) {
			feedClosed(ofConn(sessions, c, numConns), func(int) bool { return !time.Now().Before(deadline) })
		})
	}
	err = <-sampled
	if err == nil && r.w.record {
		ph.backfill, err = r.runBackfill(sessions)
	}
	close(stopCalib)
	ph.slowdown = <-calibrated
	if err != nil {
		return nil, err
	}
	ph.loadCPU = selfCPU() - loadBefore
	after, err := r.cpuNow()
	if err != nil {
		return nil, err
	}
	for d, cpu := range after {
		ph.cpu[d] = cpu - before[d]
	}
	for _, c := range conns {
		ph.bytes += c.conn.written.Load()
		ph.flushRTT.Merge(c.FlushRTT.Snapshot())
	}
	ph.bytes -= bytesBefore
	for _, s := range sessions {
		ph.fed += s.fed
	}
	return ph, nil
}

// sampleWindows closes a window every `every` from start, numWindows in
// all, reading the tuple meter and the daemons' CPU clocks at each edge.
func (r *rig) sampleWindows(ph *phase, meter *atomic.Uint64, start time.Time, every time.Duration) error {
	prevAt, prevTuples, prevCPU := start, uint64(0), 0.0
	for i := 0; i <= numWindows; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * every)))
		at, tuples := time.Now(), meter.Load()
		cpus, err := r.cpuNow()
		if err != nil {
			return err
		}
		var cpu float64
		for _, c := range cpus {
			cpu += c
		}
		if i > 0 {
			ph.windows = append(ph.windows, window{
				seconds: at.Sub(prevAt).Seconds(),
				tuples:  float64(tuples - prevTuples),
				cpu:     cpu - prevCPU,
			})
		}
		prevAt, prevTuples, prevCPU = at, tuples, cpu
	}
	return nil
}

func (r *rig) cpuNow() (map[*daemon]float64, error) {
	out := make(map[*daemon]float64)
	for _, d := range r.daemons() {
		cpu, err := d.cpuSeconds()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		out[d] = cpu
	}
	return out, nil
}

// backfillOutcome is one Client.Backfill over the phase's recorded streams.
type backfillOutcome struct {
	reply   wire.BackfillReply
	dets    [][]anduin.Detection // per session, in request order
	elapsed time.Duration
	cpu     float64 // CPU seconds the daemon spent on it
}

func (b *backfillOutcome) rate() float64 { return float64(b.reply.Tuples) / b.elapsed.Seconds() }

// runBackfill re-evaluates every session's recording on the recording
// daemon through a dedicated connection (a backfill holds the server
// connection's reader for its whole run). The archive sits in the page
// cache: nothing fsyncs, so this measures decode and evaluation, not disk.
func (r *rig) runBackfill(sessions []*session) (*backfillOutcome, error) {
	cl, err := wire.Dial(r.front().addr)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	req := wire.BackfillRequest{}
	for _, s := range sessions {
		req.Streams = append(req.Streams, s.id)
	}
	out := &backfillOutcome{dets: make([][]anduin.Detection, len(sessions))}
	cpuBefore, err := r.front().cpuSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out.reply, err = cl.Backfill(req, func(i int, dets []anduin.Detection) {
		out.dets[i] = append(out.dets[i], dets...)
	})
	out.elapsed = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("backfill: %w", err)
	}
	cpuAfter, err := r.front().cpuSeconds()
	out.cpu = cpuAfter - cpuBefore
	return out, err
}

// ingestRate is the median window's tuples per second: tuples handed to the
// connections, which the closed loop's flush window keeps within two rounds
// of the tuples fully processed.
func (ph *phase) ingestRate() float64 {
	var rates []float64
	for _, w := range ph.windows {
		rates = append(rates, w.tuples/w.seconds)
	}
	return median(rates)
}

// ingestCPU is the median window's daemon CPU seconds per million tuples.
func (ph *phase) ingestCPU() float64 {
	var costs []float64
	for _, w := range ph.windows {
		costs = append(costs, w.cpu/w.tuples*1e6)
	}
	return median(costs)
}

// rate is the phase's end-to-end throughput: the ingest rate, or on the
// record workload the rate of the whole cycle — every tuple recorded while
// served and then re-evaluated from its recording — which is the harmonic
// combination of the ingest and backfill rates.
func (ph *phase) rate() float64 {
	if ph.backfill == nil {
		return ph.ingestRate()
	}
	return 1 / (1/ph.ingestRate() + 1/ph.backfill.rate())
}

// cpuPerMtuple is the daemons' CPU cost of that work.
func (ph *phase) cpuPerMtuple() float64 {
	if ph.backfill == nil {
		return ph.ingestCPU()
	}
	return ph.ingestCPU() + ph.backfill.cpu/float64(ph.backfill.reply.Tuples)*1e6
}

func (ph *phase) latencies() []time.Duration {
	var all []time.Duration
	for _, s := range ph.sessions {
		all = append(all, s.lat...)
	}
	return sortDurations(all)
}

// verdict is the oracle's judgement of one phase: tuples offered, tuples
// failed, and why. A session that errored before feeding anything fails no
// tuple, so correctness is the absence of reasons, not of failed tuples.
type verdict struct {
	attempted int
	failed    int
	reasons   []string
}

func (v *verdict) correct() bool { return len(v.reasons) == 0 }

// maxReasons bounds the explanations printed; the first one always fits.
const maxReasons = 8

func (v *verdict) fail(tuples int, format string, args ...any) {
	v.failed += tuples
	if len(v.reasons) < maxReasons {
		v.reasons = append(v.reasons, fmt.Sprintf(format, args...))
	}
}

// judge checks a phase against the in-process reference: a session's tuples
// fail if it errored, lost a tuple or a detection, or its detections are
// not byte-identical to the bare-engine replay; on the record workload also
// if its backfill detections differ from the live ones. Broken accounting
// (tuples in ≠ out + dropped, recorded ≠ fed, anything lost or re-homed)
// fails every tuple.
func judge(in *inputs, w workload, ph *phase, m serve.Metrics, sent uint64, breakOracle bool) (*verdict, error) {
	v := &verdict{attempted: ph.fed}
	refs, err := buildReferences(plansOf(in.gestures[:w.gestures]), in.recs, ph.sessions)
	if err != nil {
		return nil, err
	}
	if breakOracle {
		// Fault injection for the harness's own tests: the oracle must
		// notice a single missing detection.
		for _, ref := range refs {
			if ref != nil && len(ref.dets) > 0 {
				ref.dets, ref.at = ref.dets[1:], ref.at[1:]
			}
		}
	}
	for i, s := range ph.sessions {
		err := s.err
		if err == nil {
			err = checkSession(s, refs[s.recIdx])
		}
		if err == nil && s.strayed > 0 {
			err = fmt.Errorf("%d detections end on no fed tuple", s.strayed)
		}
		if err == nil && ph.backfill != nil {
			err = sameDetections("backfill", ph.backfill.dets[i], s.dets)
		}
		if err != nil {
			v.fail(s.fed, "%s: %v", s.id, err)
		}
	}
	var broken []string
	if m.Enqueued != m.Processed+m.Dropped || m.Dropped != 0 {
		broken = append(broken, fmt.Sprintf("in %d, out %d, dropped %d", m.Enqueued, m.Processed, m.Dropped))
	}
	if m.Enqueued != sent {
		broken = append(broken, fmt.Sprintf("servers admitted %d of %d tuples sent", m.Enqueued, sent))
	}
	for _, be := range m.Backends {
		if be.Lost != 0 || be.Rehomed != 0 || !be.Healthy {
			broken = append(broken, fmt.Sprintf("backend %s: lost %d, rehomed %d, healthy %v", be.ID, be.Lost, be.Rehomed, be.Healthy))
		}
	}
	if bf := ph.backfill; bf != nil && (bf.reply.Tuples != uint64(ph.fed) || len(bf.reply.Missing) != 0) {
		broken = append(broken, fmt.Sprintf("backfill read %d of %d recorded tuples, %d streams missing",
			bf.reply.Tuples, ph.fed, len(bf.reply.Missing)))
	}
	if len(broken) > 0 {
		v.failed = 0
		v.fail(ph.fed, "accounting broken: %v", broken)
	}
	return v, nil
}

// setupReps is how often a run sets the topology up; setup_s is the median.
// setupBursts calibration bursts (≈1 ms each) follow each repetition.
const (
	setupReps   = 5
	setupBursts = 20
)

// runUntraced is a -trace 0 run: repeated set-up, one measured phase, the
// oracle, and the end-to-end metrics.
func runUntraced(sup *supervisor, w workload, in *inputs, seconds float64, breakOracle bool) (values, *verdict, error) {
	var setups []float64
	var r *rig
	var sessions []*session
	for rep := 0; rep < setupReps; rep++ {
		if r != nil {
			closeAll(r.conns)
			sup.stopAll()
		}
		var took time.Duration
		var err error
		if r, sessions, took, err = setUp(sup, w, in, rep, false); err != nil {
			return nil, nil, err
		}
		// Set-up is CPU-bound too (exec, learning, the warm-up pass) and
		// too short to calibrate while it runs, so the CPU's speed is
		// sampled right after it.
		setups = append(setups, took.Seconds()/slowdown(setupBursts))
	}
	ph, err := r.runPhase(r.conns, sessions, seconds)
	if err != nil {
		return nil, nil, err
	}
	m, rss, err := r.finish()
	if err != nil {
		return nil, nil, err
	}
	sup.stopAll() // the oracle gets both cores
	v, err := judge(in, w, ph, m, r.sent, breakOracle)
	if err != nil {
		return nil, nil, err
	}
	lat := ph.latencies()
	if len(lat) == 0 {
		return nil, nil, errors.New("no detection arrived: nothing to time")
	}
	var peak float64
	for _, mb := range rss {
		peak += mb
	}
	// Times are reference seconds (see calib.go). So is the throughput of a
	// closed loop, which keeps both cores busy and is therefore CPU-bound;
	// the open loop's rate is set by its schedule and stays as measured.
	tuplesPerS, latency := ph.rate(), ms(percentile(lat, 50))
	fmt.Fprintf(os.Stderr, "benchmark: CPU slowdown %.3f; as measured: %.0f tuples/s, p50 %.3f ms, %.3f cpu-s/Mtuple\n",
		ph.slowdown, tuplesPerS, latency, ph.cpuPerMtuple())
	if !w.paced {
		tuplesPerS *= ph.slowdown
	}
	return values{
		"setup_s":               median(setups),
		"tuples_per_s":          tuplesPerS,
		"detect_latency_p50_ms": latency / ph.slowdown,
		"sut_cpu_s_per_mtuple":  ph.cpuPerMtuple() / ph.slowdown,
		"sut_peak_rss_mb":       peak,
	}, v, nil
}

// finish reads the topology's final counters and peak memory and hangs up.
func (r *rig) finish() (serve.Metrics, map[*daemon]float64, error) {
	m, err := r.conns[0].Metrics()
	if err != nil {
		return m, nil, fmt.Errorf("fetching server metrics: %w", err)
	}
	rss := make(map[*daemon]float64)
	for _, d := range r.daemons() {
		if rss[d], err = d.peakRSS(); err != nil {
			return m, nil, fmt.Errorf("%s: %w", d.name, err)
		}
	}
	closeAll(r.conns)
	return m, rss, nil
}
