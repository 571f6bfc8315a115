package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/kinect"
	"gesturecep/internal/learn"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

func testTime() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

// neverQuery is a cheap valid plan that can never fire; backpressure tests
// use it so processing cost is just the pipeline.
const neverQuery = `SELECT "never" MATCHING kinect_t(rHand_y > 100000);`

var (
	learnOnce  sync.Once
	learnedTxt string
	learnErr   error
)

// swipeQuery learns swipe_right once per test binary and returns the
// generated query text.
func swipeQuery(t *testing.T) string {
	t.Helper()
	learnOnce.Do(func() {
		sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.DefaultNoise(), 1)
		if err != nil {
			learnErr = err
			return
		}
		samples, err := sim.Samples(kinect.StandardGestures()[kinect.GestureSwipeRight], 4,
			testTime(), kinect.PerformOpts{PathJitter: 25})
		if err != nil {
			learnErr = err
			return
		}
		res, err := learn.Learn("swipe_right", samples, learn.DefaultConfig())
		if err != nil {
			learnErr = err
			return
		}
		learnedTxt = res.QueryText
	})
	if learnErr != nil {
		t.Fatal(learnErr)
	}
	return learnedTxt
}

// playbackFrames synthesizes a session with two swipes and a distractor.
func playbackFrames(t *testing.T, seed int64) []kinect.Frame {
	t.Helper()
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), seed)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := player.RunScript([]kinect.ScriptItem{
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: time.Second},
		{Gesture: kinect.GestureCircle},
		{Idle: 500 * time.Millisecond},
		{Gesture: kinect.GestureSwipeRight, Opts: kinect.PerformOpts{PathJitter: 15}},
		{Idle: 500 * time.Millisecond},
	}, testTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return sess.Frames
}

// feedFrames feeds camera frames to a session in order.
func feedFrames(s *Session, frames []kinect.Frame) error {
	for _, tp := range kinect.ToTuples(frames) {
		if err := s.FeedTuple(tp); err != nil {
			return err
		}
	}
	return nil
}

func newTestManager(t *testing.T, cfg Config, plans map[string]string) *Manager {
	t.Helper()
	reg := NewRegistry()
	for name, text := range plans {
		if _, err := reg.Register(name, text); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// TestDeterminism feeds the same frames to a served session and to a bare
// engine and requires byte-identical detections: the serving layer must not
// change detection semantics.
func TestDeterminism(t *testing.T) {
	qtext := swipeQuery(t)
	frames := playbackFrames(t, 7)

	// Served path.
	m := newTestManager(t, Config{Shards: 4}, map[string]string{"swipe_right": qtext})
	sess, err := m.CreateSession("user-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := feedFrames(sess, frames); err != nil {
		t.Fatal(err)
	}
	sess.Flush()
	served := sess.Detections()

	// Bare engine replay of the same frames through the same shared plan.
	plan, _ := m.Registry().Get("swipe_right")
	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var bare []anduin.Detection
	engine.Subscribe(func(d anduin.Detection) { bare = append(bare, d) })
	if _, err := engine.DeployPlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := engine.PublishBatch(raw, kinect.ToTuples(frames), nil); err != nil {
		t.Fatal(err)
	}

	if len(served) == 0 {
		t.Fatal("served session detected nothing; expected at least one swipe_right")
	}
	got, want := fmt.Sprintf("%+v", served), fmt.Sprintf("%+v", bare)
	if got != want {
		t.Errorf("served detections diverge from bare engine:\nserved: %s\nbare:   %s", got, want)
	}
}

// TestConcurrentSessions runs many sessions fed from independent goroutines
// (the -race workhorse) and checks that every session sees the identical
// detection sequence.
func TestConcurrentSessions(t *testing.T) {
	qtext := swipeQuery(t)
	frames := playbackFrames(t, 7)
	const n = 24

	m := newTestManager(t, Config{Shards: 8, QueueDepth: 64}, map[string]string{"swipe_right": qtext})
	sessions := make([]*Session, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := m.CreateSession(fmt.Sprintf("user-%d", i))
			if err != nil {
				errs <- err
				return
			}
			sessions[i] = s
			if err := feedFrames(s, frames); err != nil {
				errs <- err
			}
		}(i)
	}
	// Poll metrics concurrently to exercise the snapshot path under race.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				m.Metrics()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	m.Flush()

	want := fmt.Sprintf("%+v", sessions[0].Detections())
	if want == "[]" {
		t.Fatal("no detections in session 0")
	}
	for i, s := range sessions {
		if got := fmt.Sprintf("%+v", s.Detections()); got != want {
			t.Errorf("session %d detections diverge: %s != %s", i, got, want)
		}
	}

	mm := m.Metrics()
	wantTuples := uint64(n * len(frames))
	if mm.Enqueued != wantTuples || mm.Processed != wantTuples || mm.Dropped != 0 {
		t.Errorf("metrics = %s, want %d tuples, 0 drops", mm, wantTuples)
	}
	if mm.Sessions != n {
		t.Errorf("metrics sessions = %d, want %d", mm.Sessions, n)
	}
}

// gatedManager builds a single-shard manager whose worker blocks on a gate
// before processing each tuple, so tests control queue occupancy exactly.
func gatedManager(t *testing.T, cfg Config) (m *Manager, entered chan string, release chan struct{}) {
	t.Helper()
	cfg.Shards = 1
	m = newTestManager(t, cfg, map[string]string{"never": neverQuery})
	entered = make(chan string, 1024)
	release = make(chan struct{})
	m.shards[0].gate = func(env envelope) {
		entered <- env.sess.ID()
		<-release
	}
	return m, entered, release
}

func idleTuples(t *testing.T, n int) []stream.Tuple {
	t.Helper()
	sim, err := kinect.NewSimulator(kinect.DefaultProfile(), kinect.NoNoise(), 3)
	if err != nil {
		t.Fatal(err)
	}
	frames := sim.Idle(testTime(), time.Duration(n+2)*33*time.Millisecond)
	tuples := kinect.ToTuples(frames)
	if len(tuples) < n {
		t.Fatalf("only %d idle tuples", len(tuples))
	}
	return tuples[:n]
}

// TestBlockPolicy verifies that a full queue makes Feed wait instead of
// dropping.
func TestBlockPolicy(t *testing.T) {
	m, entered, release := gatedManager(t, Config{QueueDepth: 2, Policy: Block})
	s, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 4)

	// Tuple 0 occupies the worker (gate), 1 and 2 fill the queue.
	for i := 0; i < 3; i++ {
		if err := s.FeedTuple(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	<-entered // worker holds tuple 0

	fed := make(chan struct{})
	go func() {
		if err := s.FeedTuple(tuples[3]); err != nil {
			t.Error(err)
		}
		close(fed)
	}()
	select {
	case <-fed:
		t.Fatal("Feed returned on a full queue under Block policy")
	case <-time.After(50 * time.Millisecond):
		// Still blocked: correct.
	}

	close(release)
	for i := 0; i < 3; i++ {
		<-entered
	}
	select {
	case <-fed:
	case <-time.After(2 * time.Second):
		t.Fatal("Feed never unblocked after the worker drained the queue")
	}
	s.Flush()
	if in, out, dropped := s.Counters(); in != 4 || out != 4 || dropped != 0 {
		t.Errorf("counters = %d/%d/%d, want 4/4/0", in, out, dropped)
	}
}

// TestDropOldestPolicy verifies that a full queue evicts its head and
// accounts for every drop.
func TestDropOldestPolicy(t *testing.T) {
	m, entered, release := gatedManager(t, Config{QueueDepth: 2, Policy: DropOldest})
	s, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 5)

	// Tuple 0 occupies the worker; wait until it is out of the queue so
	// the remaining occupancy is deterministic.
	if err := s.FeedTuple(tuples[0]); err != nil {
		t.Fatal(err)
	}
	<-entered

	// 1 and 2 fill the queue; 3 and 4 must each evict the current head.
	for i := 1; i < 5; i++ {
		if err := s.FeedTuple(tuples[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	s.Flush()

	if in, out, dropped := s.Counters(); in != 5 || out != 5 || dropped != 2 {
		t.Errorf("counters = %d/%d/%d, want in=5 out=5 dropped=2", in, out, dropped)
	}
	mm := m.Metrics()
	if mm.Dropped != 2 || mm.Processed != 3 {
		t.Errorf("metrics = %s, want dropped=2 processed=3", mm)
	}
}

// flushing runs flush on its own goroutine and returns a channel that closes
// when it returns.
func flushing(flush func()) chan struct{} {
	done := make(chan struct{})
	go func() {
		flush()
		close(done)
	}()
	return done
}

func returned(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestFlushWakesOnTheTupleItWaitsFor walks a gated worker one envelope at a
// time under three flushers: each returns when its own last tuple is counted
// out — a session's as soon as the session is drained, with other sessions'
// work still queued — and none before.
func TestFlushWakesOnTheTupleItWaitsFor(t *testing.T) {
	m, entered, release := gatedManager(t, Config{QueueDepth: 4, Policy: Block})
	t.Cleanup(func() { close(release) }) // before the manager's Close, which drains
	a, err := m.CreateSession("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CreateSession("b")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 2)
	if err := a.FeedTuple(tuples[0]); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker holds a's tuple
	if err := b.FeedTuple(tuples[1]); err != nil {
		t.Fatal(err)
	}
	sh := m.shards[0]
	aDone, bDone, allDone := flushing(a.Flush), flushing(b.Flush), flushing(m.Flush)
	waitFor(t, "three flushers to wait", func() bool { return sh.flushers.Load() == 3 })
	if returned(aDone) || returned(bDone) || returned(allDone) {
		t.Fatal("a flush returned with its tuples still queued")
	}

	release <- struct{}{} // a's tuple is published
	select {
	case <-aDone:
	case <-time.After(2 * time.Second):
		t.Fatal("a.Flush still waiting after a's last tuple was published")
	}
	<-entered // the worker holds b's tuple
	if returned(bDone) || returned(allDone) {
		t.Fatal("a flush returned with its tuples still queued")
	}

	release <- struct{}{}
	for _, c := range []chan struct{}{bDone, allDone} {
		select {
		case <-c:
		case <-time.After(2 * time.Second):
			t.Fatal("flush still waiting on a drained shard")
		}
	}
	if n := sh.flushers.Load(); n != 0 {
		t.Errorf("%d flushers left registered", n)
	}
}

// TestFlushWakesOnEviction: a tuple DropOldest evicts is out of the queue,
// so the evicting feeder, not the worker, ends the flush that waited for it.
func TestFlushWakesOnEviction(t *testing.T) {
	m, entered, release := gatedManager(t, Config{QueueDepth: 1, Policy: DropOldest})
	t.Cleanup(func() { close(release) }) // before the manager's Close, which drains
	a, err := m.CreateSession("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.CreateSession("b")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 3)
	if err := a.FeedTuple(tuples[0]); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker holds a's tuple for the rest of the test
	if err := b.FeedTuple(tuples[1]); err != nil {
		t.Fatal(err)
	}
	bDone := flushing(b.Flush)
	waitFor(t, "b's flusher to wait", func() bool { return m.shards[0].flushers.Load() == 1 })
	if err := a.FeedTuple(tuples[2]); err != nil { // evicts b's tuple
		t.Fatal(err)
	}
	select {
	case <-bDone:
	case <-time.After(2 * time.Second):
		t.Fatal("b.Flush still waiting after b's only queued tuple was dropped")
	}
	if in, out, dropped := b.Counters(); in != 1 || out != 1 || dropped != 1 {
		t.Errorf("b counters = %d/%d/%d, want 1/1/1", in, out, dropped)
	}
}

// TestSessionLifecycle covers close semantics: feeding a closed session
// fails, its queued tuples are skipped, and the ID becomes reusable.
func TestSessionLifecycle(t *testing.T) {
	m := newTestManager(t, Config{Shards: 2}, map[string]string{"never": neverQuery})
	s, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSession("u"); err == nil {
		t.Error("duplicate session id accepted")
	}
	tuples := idleTuples(t, 2)
	if err := s.FeedTuple(tuples[0]); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.FeedTuple(tuples[1]); err == nil {
		t.Error("feed to a closed session succeeded")
	}
	if err := s.Close(); err == nil {
		t.Error("double close succeeded")
	}
	if _, ok := m.Session("u"); ok {
		t.Error("closed session still listed")
	}
	if _, err := m.CreateSession("u"); err != nil {
		t.Errorf("session id not reusable after close: %v", err)
	}
	if got := m.SessionCount(); got != 1 {
		t.Errorf("SessionCount = %d, want 1", got)
	}
}

// TestRegistry covers plan registration errors and hot replacement.
func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("never", neverQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("never", neverQuery); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := reg.Register("bad", `SELECT "g" MATCHING nosuch(a < 1);`); err == nil {
		t.Error("query over unknown stream accepted")
	}
	if _, err := reg.Register("syntax", `MATCHING kinect_t(a < 1);`); err == nil {
		t.Error("syntactically invalid query accepted")
	}
	if _, err := reg.Replace("never", neverQuery); err != nil {
		t.Errorf("replace failed: %v", err)
	}
	if _, err := reg.Resolve("ghost"); err == nil {
		t.Error("resolving an unregistered plan succeeded")
	}
	if got := reg.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
	m, err := NewManager(Config{Shards: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.CreateSession("u", "ghost"); err == nil {
		t.Error("session with unregistered plan accepted")
	}
	if _, err := m.CreateSession(""); err == nil {
		t.Error("empty session id accepted")
	}
}

// TestCloseFromListener closes a session from its own detection listener
// (running on the shard worker) while another session keeps the same
// shard's queue full under Block policy — the deadlock shape where
// CloseSession must not contend with blocked feeders.
func TestCloseFromListener(t *testing.T) {
	const anyQuery = `SELECT "any" MATCHING kinect_t(rHand_y < 100000);`
	reg := NewRegistry()
	if _, err := reg.Register("any", anyQuery); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Shards: 1, QueueDepth: 2, Policy: Block}, reg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.CreateSession("self")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	s.OnDetection(func(anduin.Detection) {
		if err := s.Close(); err != nil {
			t.Errorf("close from listener: %v", err)
		}
		close(closed)
	})
	other, err := m.CreateSession("other")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 4)

	// Keep the shard queue saturated from a second producer.
	flood := make(chan struct{})
	go func() {
		defer close(flood)
		for i := 0; i < 500; i++ {
			if other.FeedTuple(tuples[i%len(tuples)]) != nil {
				return
			}
		}
	}()
	if err := s.FeedTuple(tuples[0]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("deadlock: listener-initiated close never completed")
	}
	<-flood
	m.Flush()
	if err := s.FeedTuple(tuples[1]); err == nil {
		t.Error("feed to listener-closed session succeeded")
	}
	m.Close()
}

// TestFeedCloseRace hammers Feed from many goroutines while the manager
// closes mid-stream: every Feed must either error or have its tuple
// drained — no stranded tuples, so the accounting always balances (the
// invariant that keeps Flush from spinning forever).
func TestFeedCloseRace(t *testing.T) {
	for _, pol := range []Policy{Block, DropOldest} {
		t.Run(pol.String(), func(t *testing.T) {
			reg := NewRegistry()
			if _, err := reg.Register("never", neverQuery); err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(Config{Shards: 2, QueueDepth: 4, Policy: pol}, reg)
			if err != nil {
				t.Fatal(err)
			}
			tuples := idleTuples(t, 1)
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				s, err := m.CreateSession(fmt.Sprintf("u%d", i))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(s *Session) {
					defer wg.Done()
					for s.FeedTuple(tuples[0]) == nil {
					}
				}(s)
			}
			time.Sleep(5 * time.Millisecond)
			m.Close()
			wg.Wait()
			for i, sh := range m.shards {
				if enq, out := sh.enqueued.Load(), sh.processed.Load()+sh.dropped.Load(); enq != out {
					t.Errorf("shard %d stranded tuples: enqueued=%d processed+dropped=%d", i, enq, out)
				}
			}
		})
	}
}

// TestManagerClose verifies that Close drains queued work and rejects
// subsequent use.
func TestManagerClose(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("never", neverQuery); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Shards: 2, QueueDepth: 8}, reg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 8)
	for _, tp := range tuples {
		if err := s.FeedTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	m.Close() // idempotent
	if in, out, _ := s.Counters(); out != in {
		t.Errorf("close did not drain: in=%d out=%d", in, out)
	}
	if err := s.FeedTuple(tuples[0]); err == nil {
		t.Error("feed after manager close succeeded")
	}
	if _, err := m.CreateSession("v"); err == nil {
		t.Error("create after manager close succeeded")
	}
}
