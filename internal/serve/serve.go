package serve

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/stream"
)

// Policy selects the backpressure behaviour of a full shard queue.
type Policy int

const (
	// Block makes a feed wait until its whole batch fits the shard queue —
	// lossless ingestion, producers are paced by detection throughput.
	Block Policy = iota
	// DropOldest evicts the oldest queued batches, whole, until the new one
	// fits — bounded latency under overload; every tuple of an evicted batch
	// is counted dropped, per session and per shard.
	DropOldest
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a command-line flag value into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop", "drop-oldest", "dropoldest":
		return DropOldest, nil
	default:
		return 0, fmt.Errorf("serve: unknown backpressure policy %q (want block or drop-oldest)", s)
	}
}

// Config tunes the session manager.
type Config struct {
	// Shards is the number of worker goroutines (and queues) tuples are
	// multiplexed over. Each session is pinned to one shard. Defaults to
	// GOMAXPROCS.
	Shards int
	// QueueDepth bounds the tuples waiting in each shard's queue, however
	// they are batched. A batch is admitted whole or not at all, so the one
	// exception is a batch larger than the depth: it is admitted alone,
	// into an empty queue. Defaults to 256.
	QueueDepth int
	// Policy selects the backpressure behaviour when a queue is full.
	Policy Policy
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Policy != Block && c.Policy != DropOldest {
		return fmt.Errorf("serve: invalid policy %d", int(c.Policy))
	}
	return nil
}

// Lender is what a feeder that lends its batch (Session.FeedLent) gets the
// memory back through: Release is called exactly once, when the runtime has
// published or dropped the batch's last tuple and nothing reads it any more.
type Lender interface{ Release() }

// envelope is one queued unit of work: a batch of tuples, in order, bound for
// one session's raw stream — a decoded wire batch, or a batch of one. The
// queue holds the slice from admission until the envelope is processed or
// evicted: for good when lender is nil, on loan otherwise — whoever takes the
// envelope out of the ring releases it (done). sentNs/enqNs are non-zero only
// for trace-sampled batches with instruments installed; unsampled traffic
// never reads a clock here.
type envelope struct {
	sess   *Session
	tuples []stream.Tuple
	lender Lender          // nil: the queue owns tuples
	reads  *stream.ReadSet // the fields the tuples hold (nil: every field)
	sentNs int64           // client-send unix nanos (from the wire trace timestamp)
	enqNs  int64           // local enqueue unix nanos
}

// done gives a lent envelope's memory back, once its last tuple was
// published, skipped or dropped.
func (env *envelope) done() {
	if env.lender != nil {
		env.lender.Release()
	}
}

// shard is one ingestion lane: a bounded queue drained by exactly one
// worker goroutine. Sessions are pinned to shards by hashing their ID, so
// every session's tuples are published by a single goroutine in FIFO order
// — the stream package's single-publisher invariant, preserved at fleet
// scale.
//
// The queue is a ring of envelopes bounded in tuples: a channel's capacity
// would count envelopes, and an envelope holds anywhere from one tuple to a
// full wire batch. The ring has Config.QueueDepth slots: an envelope holds at
// least one tuple, so it can never be short of one.
type shard struct {
	id int

	// admit is the turnstile of Block feeders: one at a time holds it from
	// arrival until its batch is in the ring, waiting for room if need be, so
	// a wide batch waiting for room is not overtaken forever by narrow ones
	// that fit in every slot the worker frees (a starved sync.Mutex hands
	// over in arrival order). Taken before mu; the worker never takes it.
	admit sync.Mutex

	mu       sync.Mutex
	nonEmpty sync.Cond // the worker waits here for work
	room     sync.Cond // the feeder holding admit waits here for room
	progress sync.Cond // flushers wait here for tuples to leave the queue
	ring     []envelope
	head, n  int  // first envelope and envelope count
	queued   int  // tuples in the ring
	stopping bool // Close ran: the worker exits once the ring is empty

	// flushers counts goroutines waiting on progress, so that counting
	// tuples out costs the worker one load while nobody flushes.
	flushers atomic.Int32

	sessions   atomic.Int64
	enqueued   atomic.Uint64
	processed  atomic.Uint64
	dropped    atomic.Uint64
	detections atomic.Uint64

	// gate, when non-nil, runs before each dequeued envelope is processed.
	// Tests use it to hold the worker mid-drain; it must be set before any
	// tuple is fed.
	gate func(envelope)

	// ins receives stage latencies of trace-sampled batches: the manager's.
	ins *Instruments
}

func newShard(id, depth int, ins *Instruments) *shard {
	sh := &shard{id: id, ring: make([]envelope, depth), ins: ins}
	sh.nonEmpty.L = &sh.mu
	sh.room.L = &sh.mu
	sh.progress.L = &sh.mu
	return sh
}

// await blocks until drained — a session's or the shard's out counters have
// caught up with its in counter — reports true. Whoever counts tuples out
// calls counted, so no clock is involved: a flush returns when its last tuple
// is out, not when the runtime next serves a timer (a 50 µs sleep in a
// process with nothing else to run takes over a millisecond).
func (sh *shard) await(drained func() bool) {
	if drained() {
		return
	}
	sh.mu.Lock()
	sh.flushers.Add(1)
	for !drained() {
		sh.progress.Wait()
	}
	sh.flushers.Add(-1)
	sh.mu.Unlock()
}

// counted wakes the flushers after tuples of s were counted out of the queue
// (published, skipped or dropped), if that drained s: a flush waits for its
// session to drain, or for the shard to, and a shard drains with the session
// counted last. A flusher registers before it checks and checks under mu, so
// either it sees the new count or this sees it.
func (sh *shard) counted(s *Session) {
	if sh.flushers.Load() != 0 && s.drained() {
		sh.mu.Lock()
		sh.progress.Broadcast()
		sh.mu.Unlock()
	}
}

// fits reports whether n more tuples may join the queue: within the depth,
// or alone into an empty queue. Called with sh.mu held.
func (sh *shard) fits(n int) bool {
	return sh.queued+n <= len(sh.ring) || sh.queued == 0
}

// pop removes the oldest envelope. Called with sh.mu held and sh.n > 0.
func (sh *shard) pop() envelope {
	env := sh.ring[sh.head]
	sh.ring[sh.head] = envelope{}
	sh.head = (sh.head + 1) % len(sh.ring)
	sh.n--
	sh.queued -= len(env.tuples)
	return env
}

// push admits env under the given backpressure policy and wakes the worker.
func (sh *shard) push(env envelope, policy Policy) {
	n := len(env.tuples)
	switch policy {
	case Block:
		sh.admit.Lock()
		defer sh.admit.Unlock()
		sh.mu.Lock()
		// The worker keeps draining until Close, and Close waits for the
		// feed barrier this feeder holds, so the wait always ends.
		for !sh.fits(n) {
			sh.room.Wait()
		}
	case DropOldest:
		sh.mu.Lock()
		for !sh.fits(n) {
			old := sh.pop()
			// Release is the lender's code: not under the queue lock.
			sh.mu.Unlock()
			lost := uint64(len(old.tuples))
			old.sess.dropped.Add(lost)
			old.sess.out.Add(lost)
			sh.dropped.Add(lost)
			old.done()
			sh.counted(old.sess)
			sh.mu.Lock()
		}
	}
	sh.ring[(sh.head+sh.n)%len(sh.ring)] = env
	sh.n++
	sh.queued += n
	sh.mu.Unlock()
	sh.nonEmpty.Signal()
}

// Manager owns the shard fleet and the session table.
type Manager struct {
	cfg    Config
	reg    *Registry
	shards []*shard
	wg     sync.WaitGroup

	// feedMu is the Feed/Close barrier: enqueue holds it for reading,
	// Close sets closed under the write lock before stopping the workers,
	// so an admitted batch always has a live worker to drain it. It
	// intentionally guards nothing else — in particular CloseSession does
	// not take it, so a session may close itself from a detection
	// listener without deadlocking its shard.
	feedMu sync.RWMutex
	closed atomic.Bool

	mu       sync.Mutex
	sessions map[string]*Session

	// ins is the trace-sampled stage instrumentation.
	ins *Instruments
}

// NewManager starts cfg.Shards worker goroutines serving sessions that
// deploy plans from reg.
func NewManager(cfg Config, reg *Registry) (*Manager, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		reg:      reg,
		sessions: make(map[string]*Session),
		ins:      newInstruments(),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, cfg.QueueDepth, m.ins)
		m.shards = append(m.shards, sh)
		m.wg.Add(1)
		go m.worker(sh)
	}
	return m, nil
}

// Registry returns the plan registry sessions deploy from.
func (m *Manager) Registry() *Registry { return m.reg }

// Shards returns the number of ingestion shards.
func (m *Manager) Shards() int { return len(m.shards) }

// shardFor pins a session ID to a shard (FNV-1a).
func (m *Manager) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return m.shards[shardIndex(h.Sum32(), len(m.shards))]
}

// shardIndex reduces a hash to a shard index. The modulus is taken unsigned:
// through int, a sum with the top bit set is negative where int is 32 bits.
func shardIndex(sum uint32, shards int) int {
	return int(sum % uint32(shards))
}

// worker drains one shard queue until the manager closes and the queue is
// empty.
func (m *Manager) worker(sh *shard) {
	defer m.wg.Done()
	for {
		sh.mu.Lock()
		for sh.n == 0 && !sh.stopping {
			sh.nonEmpty.Wait()
		}
		if sh.n == 0 {
			sh.mu.Unlock()
			return
		}
		env := sh.pop()
		sh.mu.Unlock()
		sh.room.Signal()
		sh.process(env)
	}
}

// process publishes one envelope's tuples, in order, into its session's
// engine, as one batch. Detections fan out synchronously on this goroutine
// via the session's engine subscription; a listener that closes the session
// mid-batch stops the detections of the tuples behind the one it fired on
// from being dispatched — the rest of the batch is still counted out.
func (sh *shard) process(env envelope) {
	if sh.gate != nil {
		sh.gate(env)
	}
	s := env.sess
	tuples := env.tuples
	if !env.reads.Covers(s.Reads()) {
		s.readsBeyond(env.reads)
	}
	// A trace-sampled envelope carries its enqueue time, and its first tuple
	// carries the trace through the engine, so the stage histograms keep
	// their per-tuple meaning; everything else skips the clock reads.
	if env.enqNs != 0 {
		start := time.Now()
		sh.ins.QueueWait.Observe(time.Duration(start.UnixNano() - env.enqNs))
		s.publish(tuples[:1])
		tuples = tuples[1:]
		end := time.Now()
		sh.ins.Detect.Observe(end.Sub(start))
		if env.sentNs != 0 {
			sh.ins.Ingest.Observe(time.Duration(end.UnixNano() - env.sentNs))
		}
	}
	s.publish(tuples)
	n := uint64(len(env.tuples))
	env.done()
	s.out.Add(n)
	sh.processed.Add(n)
	sh.counted(s)
}

// readsBeyond panics: the session now reads a field outside held, the set
// a batch it was fed holds (Session.FeedLent).
func (s *Session) readsBeyond(held *stream.ReadSet) {
	panic(fmt.Sprintf("serve: session %q reads fields %v of a batch that holds only %v", s.id, s.Reads().Fields(), held.Fields()))
}

// publish hands a batch of tuples to the session's engine unless the
// session closed.
func (s *Session) publish(ts []stream.Tuple) {
	if len(ts) == 0 || s.closed.Load() {
		return
	}
	// enqueue validated the arity against the session schema, so the
	// publish cannot fail; a failure here is a programming error.
	if err := s.engine.PublishBatch(s.raw, ts, s.live); err != nil {
		panic(fmt.Sprintf("serve: session %q: %v", s.id, err))
	}
}

// enqueue admits one batch — all of it or none — into the session's shard
// queue as a single envelope, applying the configured backpressure policy.
// Once admitted (nil error) the queue holds the slice and the tuples' field
// arrays, and the caller must not touch them: for good when lender is nil,
// until lender.Release otherwise. A refused batch stays the caller's, lender
// included. sentNs, when non-zero, is the
// client-send unix-nano timestamp of a trace-sampled wire batch; it rides in
// the envelope so the shard worker can record queue-wait, detect and
// end-to-end latencies (with no instruments installed it is ignored).
//
// It holds the feed barrier for the duration: Close sets m.closed under
// the write side before stopping the workers, so a batch admitted here is
// guaranteed to still have a live worker to drain it — a feed can never
// strand tuples (and hang Flush) by racing Close.
func (m *Manager) enqueue(s *Session, tuples []stream.Tuple, reads *stream.ReadSet, sentNs int64, lender Lender) error {
	if len(tuples) == 0 {
		return nil
	}
	if s.closed.Load() {
		return fmt.Errorf("serve: session %q is closed", s.id)
	}
	if s.sealed.Load() {
		return fmt.Errorf("serve: session %q is sealed for migration", s.id)
	}
	arity := s.raw.Schema().Len()
	for i := range tuples {
		if len(tuples[i].Fields) != arity {
			return fmt.Errorf("serve: session %q: tuple has %d fields, schema expects %d",
				s.id, len(tuples[i].Fields), arity)
		}
	}
	m.feedMu.RLock()
	defer m.feedMu.RUnlock()
	if m.closed.Load() {
		return fmt.Errorf("serve: manager closed")
	}
	env := envelope{sess: s, tuples: tuples, lender: lender, reads: reads}
	if sentNs != 0 {
		env.sentNs = sentNs
		env.enqNs = time.Now().UnixNano()
	}
	// Past the closed check the batch is guaranteed to be admitted. Count
	// the tuples in before they become visible to the worker: counting
	// first means no snapshot can ever observe more tuples out of a queue
	// than went in.
	n := uint64(len(tuples))
	s.in.Add(n)
	s.shard.enqueued.Add(n)
	s.shard.push(env, m.cfg.Policy)
	return nil
}

// Session returns a live session by ID.
func (m *Manager) Session(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// SessionCount returns the number of live sessions.
func (m *Manager) SessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// CloseSession detaches and closes a session. Tuples of the session still
// queued are skipped, not published. Safe to call from a detection
// listener (i.e. from a shard worker).
func (m *Manager) CloseSession(id string) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: no session %q", id)
	}
	s.shutdown()
	return nil
}

// Flush blocks until every tuple enqueued so far has been processed or
// dropped. Call it from the feeding side once producers are quiescent;
// concurrent feeders can make Flush wait for their tuples too.
func (m *Manager) Flush() {
	for _, sh := range m.shards {
		sh.await(func() bool { return sh.processed.Load()+sh.dropped.Load() >= sh.enqueued.Load() })
	}
}

// Close drains the shard queues, stops the workers and closes every
// session. The manager must not be used afterwards. Unlike CloseSession,
// Close must not be called from a detection listener: it waits for the
// shard workers.
func (m *Manager) Close() {
	// The write side of the feed barrier waits out in-flight Feeds and
	// makes the closed flag visible to later ones, so no tuple can be
	// admitted after the workers stop.
	m.feedMu.Lock()
	alreadyClosed := m.closed.Swap(true)
	m.feedMu.Unlock()
	if alreadyClosed {
		return
	}

	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for id, s := range m.sessions {
		sessions = append(sessions, s)
		delete(m.sessions, id)
	}
	m.mu.Unlock()

	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.stopping = true
		sh.mu.Unlock()
		sh.nonEmpty.Signal()
	}
	m.wg.Wait()
	for _, s := range sessions {
		s.shutdown()
	}
}
