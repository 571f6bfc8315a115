package serve

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/stream"
)

// batchOf returns n tuples with consecutive Seq starting at *seq, advancing
// it. FeedLent with no lender owns what it is handed, so every call gets a
// fresh slice; the field arrays are shared read-only.
func batchOf(pool []stream.Tuple, seq *uint64, n int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		out[i] = pool[int(*seq)%len(pool)]
		out[i].Seq = *seq
		*seq++
	}
	return out
}

// steppedManager is a single-shard manager whose worker reports the width of
// each envelope it dequeues and then waits for one step token, so a test
// walks the queue one envelope at a time.
func steppedManager(t *testing.T, cfg Config) (m *Manager, entered chan int, step chan struct{}) {
	t.Helper()
	cfg.Shards = 1
	m = newTestManager(t, cfg, map[string]string{"never": neverQuery})
	entered = make(chan int, 1024)
	step = make(chan struct{})
	m.shards[0].gate = func(env envelope) {
		entered <- len(env.tuples)
		<-step
	}
	return m, entered, step
}

func queuedTuples(m *Manager) int { return m.Metrics().Shards[0].QueueDepth }

// waitFor polls cond; shard state is only observable through its lock.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// admitting reports whether a Block feeder holds the shard's turnstile.
func (sh *shard) admitting() bool {
	if sh.admit.TryLock() {
		sh.admit.Unlock()
		return false
	}
	return true
}

func wantEntered(t *testing.T, entered chan int, width int) {
	t.Helper()
	select {
	case got := <-entered:
		if got != width {
			t.Fatalf("worker dequeued an envelope of %d tuples, want %d", got, width)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("worker never dequeued the envelope of %d tuples", width)
	}
}

// TestQueueBoundsTuples walks a Block queue of depth 8 envelope by envelope:
// the depth bounds tuples however they are batched, a batch is admitted only
// when all of it fits, blocked feeders are admitted in arrival order, and a
// batch wider than the depth waits for an empty queue and is then the one
// thing allowed over the bound.
func TestQueueBoundsTuples(t *testing.T) {
	m, entered, step := steppedManager(t, Config{QueueDepth: 8, Policy: Block})
	sh := m.shards[0]
	s, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	pool := idleTuples(t, 4)
	var seq uint64
	feed := func(n int) {
		t.Helper()
		if err := s.FeedLent(batchOf(pool, &seq, n), nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	feedAsync := func(n int) chan struct{} {
		batch, done := batchOf(pool, &seq, n), make(chan struct{})
		go func() {
			defer close(done)
			if err := s.FeedLent(batch, nil, 0, nil); err != nil {
				t.Error(err)
			}
		}()
		return done
	}
	blocked := func(done chan struct{}, what string) {
		t.Helper()
		select {
		case <-done:
			t.Fatalf("%s was admitted", what)
		case <-time.After(30 * time.Millisecond):
		}
	}
	admitted := func(done chan struct{}, what string) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never admitted", what)
		}
	}

	feed(3)
	wantEntered(t, entered, 3) // the worker holds A(3); the queue is empty
	feed(5)
	feed(3)
	if q := queuedTuples(m); q != 8 {
		t.Fatalf("queued = %d after B(5), C(3), want 8", q)
	}
	d := feedAsync(2)
	blocked(d, "D(2) into a queue holding 8 of 8")
	if q := queuedTuples(m); q != 8 {
		t.Fatalf("queued = %d with D(2) blocked, want 8", q)
	}

	step <- struct{}{} // A done; the worker takes B(5), leaving C(3)
	wantEntered(t, entered, 5)
	admitted(d, "D(2) with 3 of 8 queued")

	// X(12) is wider than the depth: it waits for an empty queue. Y(1) would
	// fit beside C and D, but arrived behind X.
	x := feedAsync(12)
	waitFor(t, "X(12) to take its turn", sh.admitting)
	y := feedAsync(1)
	blocked(x, "X(12) into a non-empty queue of depth 8")
	blocked(y, "Y(1) ahead of X(12), which arrived first")
	if q := queuedTuples(m); q != 5 {
		t.Fatalf("queued = %d with X and Y blocked, want C(3)+D(2)", q)
	}

	step <- struct{}{} // B done; the worker takes C(3), leaving D(2)
	wantEntered(t, entered, 3)
	blocked(x, "X(12) beside D(2)")
	step <- struct{}{} // C done; the worker takes D(2): the queue is empty
	wantEntered(t, entered, 2)
	admitted(x, "X(12) into an empty queue")
	if q := queuedTuples(m); q != 12 {
		t.Fatalf("queued = %d, want the over-size batch alone", q)
	}
	blocked(y, "Y(1) beside the over-size batch")

	step <- struct{}{} // D done; the worker takes X(12)
	wantEntered(t, entered, 12)
	admitted(y, "Y(1) once X left the queue")
	step <- struct{}{}
	wantEntered(t, entered, 1)
	step <- struct{}{}

	s.Flush()
	if in, out, dropped := s.Counters(); in != seq || out != seq || dropped != 0 {
		t.Errorf("counters = %d/%d/%d, want %d/%d/0", in, out, dropped, seq, seq)
	}
}

// TestDropOldestEvictsWholeBatches pins the DropOldest rule: the oldest
// envelopes go, whole, until the new batch fits; every tuple of an evicted
// envelope is a drop of the session that fed it; a batch wider than the depth
// evicts everything and is admitted alone.
func TestDropOldestEvictsWholeBatches(t *testing.T) {
	m, entered, step := steppedManager(t, Config{QueueDepth: 8, Policy: DropOldest})
	u, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.CreateSession("v")
	if err != nil {
		t.Fatal(err)
	}
	pool := idleTuples(t, 4)
	var seq uint64
	feed := func(s *Session, n int) {
		t.Helper()
		if err := s.FeedLent(batchOf(pool, &seq, n), nil, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, queued int, uDropped, vDropped uint64) {
		t.Helper()
		_, _, ud := u.Counters()
		_, _, vd := v.Counters()
		if q := queuedTuples(m); q != queued || ud != uDropped || vd != vDropped {
			t.Fatalf("%s: queued=%d dropped u=%d v=%d, want %d, %d, %d", when, q, ud, vd, queued, uDropped, vDropped)
		}
	}

	feed(u, 2)
	wantEntered(t, entered, 2) // the worker holds u(2); nothing below can reach it
	feed(u, 5)
	feed(v, 3)
	check("full", 8, 0, 0)
	feed(v, 4) // 12 > 8: u(5) goes, v(3)+v(4) stay
	check("after v(4)", 7, 5, 0)
	feed(u, 12) // wider than the depth: everything goes, it stays alone
	check("after u(12)", 12, 5, 7)
	feed(v, 1) // the over-size batch is the oldest now
	check("after v(1)", 1, 17, 7)

	close(step)
	m.Flush()
	uIn, uOut, _ := u.Counters()
	vIn, vOut, _ := v.Counters()
	if uIn != 19 || uOut != 19 || vIn != 8 || vOut != 8 {
		t.Errorf("u in/out = %d/%d, v in/out = %d/%d, want 19/19 and 8/8", uIn, uOut, vIn, vOut)
	}
	if mm := m.Metrics(); mm.Enqueued != 27 || mm.Dropped != 24 || mm.Processed != 3 {
		t.Errorf("metrics = %s, want enqueued=27 dropped=24 processed=3", mm)
	}
}

// TestDepthOneStillDrops: at depth 1 every batch of one displaces its
// predecessor, exactly as the tuple-granular queue did.
func TestDepthOneStillDrops(t *testing.T) {
	m, entered, step := steppedManager(t, Config{QueueDepth: 1, Policy: DropOldest})
	s, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	tuples := idleTuples(t, 4)
	if err := s.FeedTuple(tuples[0]); err != nil {
		t.Fatal(err)
	}
	wantEntered(t, entered, 1)
	for _, tp := range tuples[1:] {
		if err := s.FeedTuple(tp); err != nil {
			t.Fatal(err)
		}
	}
	close(step)
	s.Flush()
	if in, out, dropped := s.Counters(); in != 4 || out != 4 || dropped != 2 {
		t.Errorf("counters = %d/%d/%d, want 4/4/2", in, out, dropped)
	}
}

// TestBatchAccounting drives several feeders per shard with batches of mixed
// width — some wider than the queue — and checks the books balance per
// session and per shard under both policies: In == Out and Dropped ⊆ Out.
func TestBatchAccounting(t *testing.T) {
	for _, pol := range []Policy{Block, DropOldest} {
		t.Run(pol.String(), func(t *testing.T) {
			const sessions, perSession, depth = 6, 3000, 16
			m := newTestManager(t, Config{Shards: 2, QueueDepth: depth, Policy: pol},
				map[string]string{"never": neverQuery})
			pool := idleTuples(t, 8)
			ss := make([]*Session, sessions)
			var wg sync.WaitGroup
			for i := range ss {
				i := i
				s, err := m.CreateSession(fmt.Sprintf("u%d", i))
				if err != nil {
					t.Fatal(err)
				}
				ss[i] = s
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					var seq uint64
					for seq < perSession {
						n := min(1+rng.Intn(depth+depth/2), perSession-int(seq))
						var err error
						if n == 1 && rng.Intn(2) == 0 {
							err = s.FeedTuple(batchOf(pool, &seq, 1)[0])
						} else {
							err = s.FeedLent(batchOf(pool, &seq, n), nil, 0, nil)
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			m.Flush()

			shardIn := make([]uint64, m.Shards())
			shardDropped := make([]uint64, m.Shards())
			for i, s := range ss {
				in, out, dropped := s.Counters()
				if in != perSession || out != in || dropped > out {
					t.Errorf("session %d counters = %d/%d/%d, want in=out=%d", i, in, out, dropped, perSession)
				}
				if pol == Block && dropped != 0 {
					t.Errorf("session %d dropped %d tuples under Block", i, dropped)
				}
				shardIn[s.Shard()] += in
				shardDropped[s.Shard()] += dropped
			}
			for _, sm := range m.Metrics().Shards {
				if sm.Enqueued != sm.Processed+sm.Dropped || sm.QueueDepth != 0 {
					t.Errorf("shard %d: enqueued=%d processed=%d dropped=%d depth=%d",
						sm.Shard, sm.Enqueued, sm.Processed, sm.Dropped, sm.QueueDepth)
				}
				if sm.Enqueued != shardIn[sm.Shard] || sm.Dropped != shardDropped[sm.Shard] {
					t.Errorf("shard %d: enqueued=%d dropped=%d, its sessions sum to %d and %d",
						sm.Shard, sm.Enqueued, sm.Dropped, shardIn[sm.Shard], shardDropped[sm.Shard])
				}
			}
		})
	}
}

// TestFeedBatchCloseRace hammers FeedLent from many goroutines while the
// manager closes: a batch is admitted whole and drained, or refused whole —
// each session's In is exactly the tuples of its successful feeds, and no
// tuple is stranded.
func TestFeedBatchCloseRace(t *testing.T) {
	for _, pol := range []Policy{Block, DropOldest} {
		t.Run(pol.String(), func(t *testing.T) {
			reg := NewRegistry()
			if _, err := reg.Register("never", neverQuery); err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(Config{Shards: 2, QueueDepth: 8, Policy: pol}, reg)
			if err != nil {
				t.Fatal(err)
			}
			pool := idleTuples(t, 4)
			const feeders = 8
			ss := make([]*Session, feeders)
			accepted := make([]uint64, feeders)
			var started atomic.Int64
			var wg sync.WaitGroup
			for i := range ss {
				i := i
				if ss[i], err = m.CreateSession(fmt.Sprintf("u%d", i)); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(i)))
					var seq uint64
					for {
						n := 1 + rng.Intn(12)
						if ss[i].FeedLent(batchOf(pool, &seq, n), nil, 0, nil) != nil {
							return
						}
						accepted[i] += uint64(n)
						started.Add(1)
					}
				}()
			}
			waitFor(t, "feeders to get going", func() bool { return started.Load() > 4*feeders })
			m.Close()
			wg.Wait()
			for i, s := range ss {
				if in, out, _ := s.Counters(); in != accepted[i] || out != in {
					t.Errorf("session %d: in=%d out=%d, its accepted batches hold %d tuples", i, in, out, accepted[i])
				}
			}
			for i, sh := range m.shards {
				if enq, out := sh.enqueued.Load(), sh.processed.Load()+sh.dropped.Load(); enq != out {
					t.Errorf("shard %d stranded tuples: enqueued=%d processed+dropped=%d", i, enq, out)
				}
			}
		})
	}
}

// TestCloseFromListenerMidBatch closes a session from its own detection
// listener while the worker is inside that session's batch: the rest of the
// batch is skipped, not published — and still counted out, so Flush settles.
func TestCloseFromListenerMidBatch(t *testing.T) {
	const anyQuery = `SELECT "any" MATCHING kinect_t(rHand_y < 100000);`
	m := newTestManager(t, Config{Shards: 1}, map[string]string{"any": anyQuery})
	s, err := m.CreateSession("self")
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Int64
	s.OnDetection(func(anduin.Detection) {
		if fired.Add(1) == 1 {
			if err := s.Close(); err != nil {
				t.Errorf("close from listener: %v", err)
			}
		}
	})
	pool := idleTuples(t, 4)
	var seq uint64
	if err := s.FeedLent(batchOf(pool, &seq, 10), nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	s.Flush()
	if in, out, dropped := s.Counters(); in != 10 || out != 10 || dropped != 0 {
		t.Errorf("counters = %d/%d/%d, want 10/10/0", in, out, dropped)
	}
	if n := fired.Load(); n != 1 {
		t.Errorf("%d detections fired; the tuples behind the closing one were published", n)
	}
	if err := s.FeedLent(batchOf(pool, &seq, 3), nil, 0, nil); err == nil {
		t.Error("closed session took a batch")
	}
	if in, _, _ := s.Counters(); in != 10 {
		t.Errorf("refused batch moved In to %d", in)
	}
}

// TestSealRefusesWholeBatches seals a session under a running feeder: every
// batch is admitted whole or refused whole — In stays a multiple of the batch
// width and equals the tuples of the batches it accepted — so the admitted
// count is an exact migration cut ordinal.
func TestSealRefusesWholeBatches(t *testing.T) {
	const width = 7
	m := newTestManager(t, Config{Shards: 1, QueueDepth: 32}, map[string]string{"never": neverQuery})
	s, err := m.CreateSession("migrant")
	if err != nil {
		t.Fatal(err)
	}
	pool := idleTuples(t, 4)
	var seq, accepted uint64
	var batches atomic.Int64
	feeder := make(chan struct{})
	go func() {
		defer close(feeder)
		for s.FeedLent(batchOf(pool, &seq, width), nil, 0, nil) == nil {
			accepted += width
			batches.Add(1)
		}
	}()
	waitFor(t, "the feeder to get going", func() bool { return batches.Load() > 20 })
	s.Seal()
	<-feeder
	s.Flush()

	in, out, _ := s.Counters()
	if in != accepted || in%width != 0 || out != in {
		t.Fatalf("sealed at in=%d out=%d with %d tuples in accepted batches of %d", in, out, accepted, width)
	}
	s.Unseal()
	seq = in
	if err := s.FeedLent(batchOf(pool, &seq, width), nil, 0, nil); err != nil {
		t.Fatalf("unsealed session refused a batch: %v", err)
	}
	s.Flush()
	if got, _, _ := s.Counters(); got != in+width {
		t.Errorf("after unseal: in=%d, want %d", got, in+width)
	}
}

// TestFeedBatchRefusesMixedArity: one malformed tuple refuses the batch
// before any of it is counted.
func TestFeedBatchRefusesMixedArity(t *testing.T) {
	m := newTestManager(t, Config{Shards: 1}, map[string]string{"never": neverQuery})
	s, err := m.CreateSession("u")
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	batch := batchOf(idleTuples(t, 4), &seq, 5)
	batch[3].Fields = batch[3].Fields[:7]
	if err := s.FeedLent(batch, nil, 0, nil); err == nil {
		t.Fatal("batch with a short tuple admitted")
	}
	if in, _, _ := s.Counters(); in != 0 {
		t.Errorf("refused batch left in=%d", in)
	}
	if err := s.FeedLent(nil, nil, 0, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// TestShardIndex: the modulus is unsigned, so a hash with its top bit set
// cannot index out of range where int is 32 bits.
func TestShardIndex(t *testing.T) {
	sum := uint32(0x80000001)
	if got := shardIndex(sum, 7); got != 3 {
		t.Errorf("shardIndex(%#x, 7) = %d, want 3", sum, got)
	}
	if narrow := int(int32(sum)) % 7; narrow >= 0 { // what int(sum) % 7 is where int is 32 bits
		t.Fatalf("a 32-bit int modulus gives %d; the case no longer reproduces the bug", narrow)
	}
	for _, sum := range []uint32{0, 1, 0x7fffffff, 0x80000000, 0x80000001, 0xfffffffe, 0xffffffff} {
		for shards := 1; shards <= 9; shards++ {
			if got, want := shardIndex(sum, shards), int(uint64(sum)%uint64(shards)); got != want {
				t.Errorf("shardIndex(%#x, %d) = %d, want %d", sum, shards, got, want)
			}
		}
	}
}

// TestLentBatchNarrowerThanTheReadSetPanics: a lent batch holds only the
// fields the session read when it was fed. A plan deployed through Engine
// afterwards reads more, so the worker refuses to publish such a batch
// rather than let the plan read undefined fields; a batch holding every
// field, or the session's current set, is published.
func TestLentBatchNarrowerThanTheReadSetPanics(t *testing.T) {
	m := newTestManager(t, Config{Shards: 1}, map[string]string{"never": neverQuery})
	s, err := m.CreateSession("a")
	if err != nil {
		t.Fatal(err)
	}
	fed := s.Reads()
	if fed == nil {
		t.Fatal("a session with one plan and no tap reads every field")
	}
	tuples := idleTuples(t, 2)
	refused := func(reads *stream.ReadSet) (panicked bool) {
		defer func() { panicked = recover() != nil }()
		m.shards[0].process(envelope{sess: s, tuples: tuples, reads: reads})
		return false
	}
	if refused(fed) || refused(nil) {
		t.Fatal("a batch holding what the session reads was refused")
	}
	if _, err := s.Engine().DeployText(`SELECT "left" MATCHING kinect_t(lHand_x > 100000);`); err != nil {
		t.Fatal(err)
	}
	if !refused(fed) {
		t.Fatalf("a batch holding %v was published to a session reading %v", fed.Fields(), s.Reads().Fields())
	}
	if refused(s.Reads()) || refused(nil) {
		t.Fatal("a batch holding what the session reads now was refused")
	}
}
