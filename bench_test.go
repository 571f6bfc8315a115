package gesture

// Benchmark harness: one benchmark per experiment E1–E10 of DESIGN.md and
// `go run ./cmd/gesturebench` (the paper has no numbered result tables, so
// each figure and quantified claim is an experiment), plus micro-benchmarks
// of the hot paths. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// and print the human-readable experiment tables with:
//
//	go run ./cmd/gesturebench

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/cep"
	"gesturecep/internal/detect"
	"gesturecep/internal/e2e"
	"gesturecep/internal/experiments"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/lint"
	"gesturecep/internal/query"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
	"gesturecep/internal/wire"
)

// BenchmarkE1SwipeRightDetection regenerates Fig. 1: learn swipe_right,
// generate the query, detect on fresh sessions.
func BenchmarkE1SwipeRightDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.E1SwipeRight(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2SampleEfficiency regenerates the "3-5 samples suffice" series
// (F1 vs sample count 1..6).
func BenchmarkE2SampleEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E2SampleEfficiency(6, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		reportLastF1(b, tab, 3)
	}
}

// BenchmarkE3TransformAblation regenerates the §3.2 invariance ablation.
func BenchmarkE3TransformAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E3TransformAblation(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4MaxDistSweep regenerates the §3.3.1 threshold sweep.
func BenchmarkE4MaxDistSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4MaxDistSweep(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5ScalingOverlap regenerates the §3.3.2 window-scaling/overlap
// trade-off.
func BenchmarkE5ScalingOverlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5ScalingOverlap(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6EngineThroughput regenerates the engine load series (tuples/s
// vs deployed queries).
func BenchmarkE6EngineThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.E6EngineThroughput(int64(i + 1))
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) > 0 {
			last := tab.Rows[len(tab.Rows)-1]
			if v, err := strconv.ParseFloat(last[1], 64); err == nil {
				b.ReportMetric(v, "tuples/s@64q")
			}
		}
	}
}

// BenchmarkE7Optimization regenerates the §3.3.3 optimization ablation.
func BenchmarkE7Optimization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7Optimization(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Baselines regenerates the learner vs DBSCAN vs DTW comparison.
func BenchmarkE8Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Baselines(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Recorder regenerates the §3.1 recorder segmentation table.
func BenchmarkE9Recorder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E9Recorder(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func reportLastF1(b *testing.B, tab experiments.Table, col int) {
	b.Helper()
	if len(tab.Rows) == 0 {
		return
	}
	last := tab.Rows[len(tab.Rows)-1]
	if col < len(last) {
		if v, err := strconv.ParseFloat(last[col], 64); err == nil {
			b.ReportMetric(v, "F1")
		}
	}
}

// --- Micro-benchmarks of the hot paths. ---

func benchTime() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

// BenchmarkNFAProcessTuple measures raw pattern-matching cost per sensor
// tuple for a 3-pose query that mostly does not match (the steady-state
// engine workload).
func BenchmarkNFAProcessTuple(b *testing.B) {
	pred := func(lo, hi float64) func(stream.Tuple) bool {
		return func(t stream.Tuple) bool { return t.Fields[0] >= lo && t.Fields[0] < hi }
	}
	p := cep.SeqWithin(time.Second,
		cep.NewAtom("a", pred(0, 10)),
		cep.NewAtom("b", pred(40, 60)),
		cep.NewAtom("c", pred(90, 110)),
	)
	nfa, err := cep.Compile(p, cep.SelectFirst, cep.ConsumeAll)
	if err != nil {
		b.Fatal(err)
	}
	tup := stream.Tuple{Ts: benchTime(), Fields: []float64{500}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup.Ts = tup.Ts.Add(33 * time.Millisecond)
		nfa.Process(tup)
	}
}

// learnedSession is what the learned-query benchmarks step: the eight demo
// gestures learned as cmd/gestured learns them, one NFA each, and a scripted
// session (every gesture performed once, idle between) already transformed
// to kinect_t, with the stride a replay of it moves event time on by.
func learnedSession(b *testing.B) (nfas []*cep.NFA, tuples []stream.Tuple, stride time.Duration) {
	script := []kinect.ScriptItem{{Idle: 500 * time.Millisecond}}
	for _, plan := range e2e.DemoPlans(b) {
		nfas = append(nfas, plan.Program.Instantiate())
		script = append(script,
			kinect.ScriptItem{Gesture: plan.Gesture, Opts: kinect.PerformOpts{PathJitter: 15}},
			kinect.ScriptItem{Idle: 700 * time.Millisecond})
	}
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := player.RunScript(script, benchTime(), nil)
	if err != nil {
		b.Fatal(err)
	}
	view, err := transform.FrameSlice(transform.DefaultConfig(), sess.Frames)
	if err != nil {
		b.Fatal(err)
	}
	return nfas, kinect.ToTuples(view), sess.Duration().Truncate(time.Second) + 2*time.Second
}

// reportLearned fails a run long enough to hold a whole session that
// detected nothing, and reports ns and predicate calls per tuple.
func reportLearned(b *testing.B, nfas []*cep.NFA, sessionLen, matches int) {
	if b.N >= sessionLen && matches == 0 {
		b.Fatal("a full session through eight learned queries detected nothing")
	}
	var processed, predCalls uint64
	for _, nfa := range nfas {
		p, c, _, _ := nfa.Stats()
		processed, predCalls = processed+p, predCalls+c
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
	b.ReportMetric(float64(predCalls)/float64(processed), "predcalls/tuple")
}

// BenchmarkNFALearnedQueries measures the engine kernel on what the
// serving stack actually runs (learnedSession), tuple by tuple through
// Process. BenchmarkNFAProcessTuple above only exercises a hand-written
// closure that never matches. One op is one tuple through all eight NFAs.
func BenchmarkNFALearnedQueries(b *testing.B) {
	nfas, tuples, stride := learnedSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i++ {
		tup := tuples[i%len(tuples)]
		tup.Ts = tup.Ts.Add(time.Duration(i/len(tuples)) * stride)
		for _, nfa := range nfas {
			matches += len(nfa.Process(tup))
		}
	}
	b.StopTimer()
	reportLearned(b, nfas, len(tuples), matches)
}

// BenchmarkNFALearnedQueriesBatch is BenchmarkNFALearnedQueries through the
// entry point the shard worker and backfill call: 64-wide batches through
// ProcessBatch, one per NFA. One op is still one tuple through all eight
// NFAs, and the detections and counters are those of Process.
func BenchmarkNFALearnedQueriesBatch(b *testing.B) {
	nfas, tuples, stride := learnedSession(b)
	batch := make([]stream.Tuple, 64)
	var found []cep.BatchMatch
	b.ReportAllocs()
	b.ResetTimer()
	matches := 0
	for i := 0; i < b.N; i += len(batch) {
		chunk := batch[:min(len(batch), b.N-i)]
		for k := range chunk {
			chunk[k] = tuples[(i+k)%len(tuples)]
			chunk[k].Ts = chunk[k].Ts.Add(time.Duration((i+k)/len(tuples)) * stride)
		}
		for _, nfa := range nfas {
			found = nfa.ProcessBatch(chunk, found[:0])
			matches += len(found)
		}
	}
	b.StopTimer()
	reportLearned(b, nfas, len(tuples), matches)
}

// BenchmarkTransformFrame measures the §3.2 transformation per skeleton
// frame.
func BenchmarkTransformFrame(b *testing.B) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	frames := sim.Idle(benchTime(), time.Second)
	tr, err := transform.New(transform.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Frame(frames[i%len(frames)])
	}
}

// BenchmarkTransformTuple measures the kinect_t view's kernel for a
// subscriber that reads every field: one raw tuple in, all 15 joints out,
// into a field array of its own — one allocation. With only
// deployed plans subscribed, the view computes just the joints they read
// (transform.View), so on the serving path this is an upper bound.
func BenchmarkTransformTuple(b *testing.B) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	tuples := kinect.ToTuples(sim.Idle(benchTime(), time.Second))
	tr, err := transform.New(transform.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tr.Tuple(tuples[i%len(tuples)]); !ok {
			b.Fatal("well-formed tuple dropped")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
}

// BenchmarkTransformProject measures the kinect_t view as the serving path
// runs it: 64-wide raw batches published through transform.View to one
// subscriber reading what the eight demo plans read, so only the joints in
// their union (one, the right hand) are rotated and scaled, and the
// parameters are estimated for every tuple.
func BenchmarkTransformProject(b *testing.B) {
	engine := anduin.New()
	_, demoView, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, plan := range e2e.DemoPlans(b) {
		if _, err := engine.DeployPlan(plan); err != nil {
			b.Fatal(err)
		}
	}
	raw, err := stream.New("kinect", kinect.Schema())
	if err != nil {
		b.Fatal(err)
	}
	view, err := transform.View(raw, transform.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	view.SubscribeBatch(demoView.Reads(), func([]stream.Tuple) {})
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	tuples := kinect.ToTuples(sim.Idle(benchTime(), 3*time.Second))[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(tuples) {
		if err := raw.PublishBatch(tuples[:min(len(tuples), b.N-i)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tuple")
}

// BenchmarkLearnPipeline measures the full §3.3 learning pipeline on 4
// samples of a swipe.
func BenchmarkLearnPipeline(b *testing.B) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := sim.Samples(kinect.StandardGestures()[kinect.GestureSwipeRight], 4,
		benchTime(), kinect.PerformOpts{PathJitter: 25})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := learn.Learn("swipe_right", samples, learn.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParse measures parsing of a generated 3-pose query.
func BenchmarkQueryParse(b *testing.B) {
	sim, _ := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	samples, err := sim.Samples(kinect.StandardGestures()[kinect.GestureSwipeRight], 3,
		benchTime(), kinect.PerformOpts{PathJitter: 25})
	if err != nil {
		b.Fatal(err)
	}
	res, err := learn.Learn("swipe_right", samples, learn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(res.QueryText); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndTuple measures the complete per-tuple path: raw tuple →
// kinect_t transformation → 8 deployed gesture queries.
func BenchmarkEndToEndTuple(b *testing.B) {
	h, err := detect.NewHarness(transform.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	gestures := []string{
		kinect.GestureSwipeRight, kinect.GestureSwipeLeft, kinect.GestureSwipeUp,
		kinect.GestureSwipeDown, kinect.GesturePush, kinect.GesturePull,
		kinect.GestureCircle, kinect.GestureRaiseHand,
	}
	sim, _ := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	for i, g := range gestures {
		samples, err := sim.Samples(kinect.StandardGestures()[g], 3, benchTime(), kinect.PerformOpts{PathJitter: 25})
		if err != nil {
			b.Fatal(err)
		}
		res, err := learn.Learn(g, samples, learn.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Deploy(res.QueryText); err != nil {
			b.Fatalf("gesture %d: %v", i, err)
		}
	}
	frames := sim.Idle(benchTime().Add(time.Hour), time.Second)
	tuples := kinect.ToTuples(frames)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tup := tuples[i%len(tuples)]
		tup.Ts = benchTime().Add(time.Hour + time.Duration(i)*33*time.Millisecond)
		if err := h.Raw.Publish(tup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSessions measures the multi-tenant serving layer: N
// concurrent sessions, each a private engine fed through the sharded
// ingestion queues, all instantiating NFAs from one shared compiled plan.
// The reported tuples/s is the aggregate ingest rate across all sessions.
func BenchmarkServeSessions(b *testing.B) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	samples, err := sim.Samples(kinect.StandardGestures()[kinect.GestureSwipeRight], 4,
		benchTime(), kinect.PerformOpts{PathJitter: 25})
	if err != nil {
		b.Fatal(err)
	}
	res, err := learn.Learn("swipe_right", samples, learn.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := player.RunScript([]kinect.ScriptItem{
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: 500 * time.Millisecond},
	}, benchTime(), nil)
	if err != nil {
		b.Fatal(err)
	}
	tuples := kinect.ToTuples(rec.Frames)
	// Stride between replays of the recording, so per-session event time
	// stays non-decreasing across b.N iterations.
	stride := rec.Duration() + time.Second

	// feed hands one replay of the recording to a session: tuple by tuple,
	// or cut into batches the way a decoded wire batch arrives — a fresh
	// slice per batch, which the session then owns.
	feed := func(s *serve.Session, offset time.Duration, batch int) error {
		if batch == 1 {
			for _, tp := range tuples {
				tp.Ts = tp.Ts.Add(offset)
				if err := s.FeedTuple(tp); err != nil {
					return err
				}
			}
			return nil
		}
		for off := 0; off < len(tuples); off += batch {
			chunk := append([]stream.Tuple(nil), tuples[off:min(off+batch, len(tuples))]...)
			for i := range chunk {
				chunk[i].Ts = chunk[i].Ts.Add(offset)
			}
			if err := s.FeedLent(chunk, nil, 0, nil); err != nil {
				return err
			}
		}
		return nil
	}
	run := func(n, batch int) func(b *testing.B) {
		return func(b *testing.B) {
			reg := serve.NewRegistry()
			if _, err := reg.Register("swipe_right", res.QueryText); err != nil {
				b.Fatal(err)
			}
			m, err := serve.NewManager(serve.Config{Shards: 4, QueueDepth: 256}, reg)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			sessions := make([]*serve.Session, n)
			for i := range sessions {
				s, err := m.CreateSession(fmt.Sprintf("user-%d", i))
				if err != nil {
					b.Fatal(err)
				}
				sessions[i] = s
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				offset := time.Duration(i) * stride
				var wg sync.WaitGroup
				for _, s := range sessions {
					wg.Add(1)
					go func(s *serve.Session) {
						defer wg.Done()
						if err := feed(s, offset, batch); err != nil {
							b.Error(err)
						}
					}(s)
				}
				wg.Wait()
				m.Flush()
				for _, s := range sessions {
					s.TakeDetections() // keep memory bounded across iterations
				}
			}
			b.StopTimer()
			total := float64(b.N) * float64(n) * float64(len(tuples))
			b.ReportMetric(total/b.Elapsed().Seconds(), "tuples/s")
		}
	}
	// The batch=64 variant is the shard hand-off a wire batch pays: one queue
	// operation per 64 tuples instead of one per tuple.
	for _, n := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sessions=%d", n), run(n, 1))
		b.Run(fmt.Sprintf("sessions=%d,batch=64", n), run(n, 64))
	}
}

// BenchmarkWireEncodeBatch measures the data-plane encoder: one full batch
// of kinect tuples appended to a reused buffer (the per-tuple network hot
// path on the client).
func BenchmarkWireEncodeBatch(b *testing.B) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.NoNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	frames := sim.Idle(benchTime(), 3*time.Second)
	tuples := kinect.ToTuples(frames)
	if len(tuples) > 64 {
		tuples = tuples[:64]
	}
	fields := len(tuples[0].Fields)
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wire.AppendBatch(buf[:0], 1, fields, tuples)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
	b.ReportMetric(float64(b.N*len(tuples))/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkWireDecodeBatch measures the data-plane decoder (the per-tuple
// network hot path on the server): strict validation plus one arena
// allocation per batch.
func BenchmarkWireDecodeBatch(b *testing.B) {
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.NoNoise(), 1)
	if err != nil {
		b.Fatal(err)
	}
	frames := sim.Idle(benchTime(), 3*time.Second)
	tuples := kinect.ToTuples(frames)
	if len(tuples) > 64 {
		tuples = tuples[:64]
	}
	payload, err := wire.AppendBatch(nil, 1, len(tuples[0].Fields), tuples)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeBatch(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*len(tuples))/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkWireLoopback measures the complete network path — client codec →
// TCP loopback → gestured frame loop → sharded session manager → detection
// push-back — for one remote session replaying a recording per iteration.
// Its cluster twin is BenchmarkGatewayProxy (internal/cluster): the same
// path with the gateway hop in between.
func BenchmarkWireLoopback(b *testing.B) {
	h := e2e.Start(b, e2e.Options{Serve: serve.Config{Shards: 2}})

	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := player.RunScript([]kinect.ScriptItem{
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
	}, benchTime(), nil)
	if err != nil {
		b.Fatal(err)
	}
	tuples := kinect.ToTuples(rec.Frames)
	stride := rec.Duration() + time.Second

	cl := h.Dial()
	rs, err := cl.Attach("bench", wire.AttachOptions{BatchSize: 64, Discard: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offset := time.Duration(i) * stride
		for _, tp := range tuples {
			tp.Ts = tp.Ts.Add(offset)
			if err := rs.FeedTuple(tp); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := rs.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(tuples))/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkE10WindowMode regenerates the window-mode design ablation.
func BenchmarkE10WindowMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E10WindowMode(int64(i + 1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathManifestInSync keeps the bench harness and the static
// hot-path gate pointed at the same functions: every entry of
// internal/lint/hotpaths.txt must still resolve to a declared function.
// Renaming a benched hot function without updating the manifest fails
// here (and in gesturelint) instead of silently un-gating the path.
func TestHotPathManifestInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the hot-path packages from source; skipped in -short")
	}
	entries := lint.HotPathManifest()
	if len(entries) == 0 {
		t.Fatal("hot-path manifest is empty; the hotpathalloc gate is gating nothing")
	}
	pkgs, err := lint.NewLoader().Load(lint.ManifestPackages()...)
	if err != nil {
		t.Fatalf("loading manifest packages: %v", err)
	}
	for _, d := range lint.StaleManifest(pkgs) {
		t.Error(d.Message)
	}
}
