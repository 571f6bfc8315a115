package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gesturecep/internal/anduin"
	"gesturecep/internal/stream"
	"gesturecep/internal/transform"
)

// Session is one tenant of the runtime: a private engine (raw kinect stream
// + kinect_t view + per-session NFAs instantiated from shared plans), pinned
// to one ingestion shard. FeedTuple and FeedLent may be called from any
// goroutine; the actual publishing happens on the shard worker, so detection
// semantics are identical to a single-engine replay of the same tuples.
type Session struct {
	id     string
	mgr    *Manager
	shard  *shard
	engine *anduin.Engine
	raw    *stream.Stream

	closed atomic.Bool
	// live reports !closed: what the engine asks between the tuples of a
	// batch, made once so publishing allocates nothing.
	live func() bool
	// sealed refuses further feeds without closing the session — the
	// migration pause: a sealed session's admitted-tuple count is a stable
	// cut ordinal until Unseal.
	sealed atomic.Bool
	// catchingUp marks a session replaying migrated history: detections it
	// fires were already delivered by the previous owner, so push consumers
	// mute them until EndCatchUp. catchUpTo is the cut ordinal the replay
	// must reach exactly (set at creation, read-only afterwards).
	catchingUp atomic.Bool
	catchUpTo  uint64
	// in counts tuples admitted to the shard queue; out counts tuples that
	// left it (published or dropped). in == out means the session is idle.
	in         atomic.Uint64
	out        atomic.Uint64
	dropped    atomic.Uint64
	detections atomic.Uint64

	// collect gates the internal detection buffer. Remote consumers that
	// stream detections out via OnDetection switch it off so a long-lived
	// session does not accumulate results it will never read.
	collect atomic.Bool
	detMu   sync.Mutex
	dets    []anduin.Detection
}

// SessionOptions tunes one session beyond plan selection.
type SessionOptions struct {
	// Gestures names the plans to deploy; empty deploys every registered
	// plan.
	Gestures []string
	// CatchUpTo > 0 creates the session at an ordinal: it is a migration
	// target whose first CatchUpTo tuples are recorded history replayed to
	// rebuild engine state. The session starts in catch-up mode (CatchingUp
	// reports true; push consumers mute its detections) until EndCatchUp
	// verifies exactly CatchUpTo tuples were admitted.
	CatchUpTo uint64
}

// CreateSession builds a session, deploys the named plans (all registered
// plans when names is empty) and pins it to a shard. The session is live
// immediately.
func (m *Manager) CreateSession(id string, gestures ...string) (*Session, error) {
	return m.CreateSessionWith(id, SessionOptions{Gestures: gestures})
}

// CreateSessionWith is CreateSession with ingestion options.
func (m *Manager) CreateSessionWith(id string, opts SessionOptions) (*Session, error) {
	if id == "" {
		return nil, fmt.Errorf("serve: empty session id")
	}
	plans, err := m.reg.Resolve(opts.Gestures...)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("serve: session %q: no plans to deploy (registry is empty)", id)
	}

	engine := anduin.New()
	raw, _, err := engine.KinectPipeline(transform.DefaultConfig())
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:        id,
		mgr:       m,
		shard:     m.shardFor(id),
		engine:    engine,
		raw:       raw,
		catchUpTo: opts.CatchUpTo,
	}
	s.live = func() bool { return !s.closed.Load() }
	if opts.CatchUpTo > 0 {
		s.catchingUp.Store(true)
	}
	// The collector subscription is installed before any tuple can be fed,
	// so no detection is ever missed.
	s.collect.Store(true)
	engine.Subscribe(func(d anduin.Detection) {
		if s.collect.Load() {
			s.detMu.Lock()
			s.dets = append(s.dets, d)
			s.detMu.Unlock()
		}
		s.detections.Add(1)
		s.shard.detections.Add(1)
	})
	for _, p := range plans {
		if _, err := engine.DeployPlan(p); err != nil {
			return nil, fmt.Errorf("serve: session %q: %w", id, err)
		}
	}

	m.mu.Lock()
	if m.closed.Load() {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: manager closed")
	}
	if _, dup := m.sessions[id]; dup {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: session %q already exists", id)
	}
	m.sessions[id] = s
	m.mu.Unlock()
	s.shard.sessions.Add(1)
	return s, nil
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Shard returns the index of the shard the session is pinned to.
func (s *Session) Shard() int { return s.shard.id }

// Reads returns the raw fields the session reads of a tuple it is fed
// (nil: every field): the union its raw stream's subscribers declare — for
// the kinect_t view, the joints its plans read and the five the transform's
// parameters are estimated from. A feeder that lends its batches may leave
// the other fields unset (FeedLent). The set changes only when a plan is
// deployed or a subscriber added through Engine: CreateSession deploys every
// plan before the session can be fed.
func (s *Session) Reads() *stream.ReadSet { return s.raw.Reads() }

// Engine exposes the session's private engine (for stats and advanced
// management). Do not publish tuples to it directly — use FeedTuple, which
// routes through the shard worker. A plan deployed or a stream subscriber
// added through it takes effect at the next batch the worker publishes, and
// widens Reads: a batch fed with FeedLent before then holds only the old
// set, and the worker panics on it rather than let the new reader see
// undefined fields.
func (s *Session) Engine() *anduin.Engine { return s.engine }

// FeedTuple enqueues one raw tuple for this session: a batch of one.
func (s *Session) FeedTuple(t stream.Tuple) error {
	return s.mgr.enqueue(s, []stream.Tuple{t}, nil, 0, nil)
}

// FeedLent enqueues raw tuples, in order, as one unit of the shard queue:
// one admission check, one queue operation, and the batch is admitted whole
// or refused whole — a closed or sealed session never takes a prefix. A
// refused batch (non-nil error) stays the caller's. An admitted batch is
// read until it is published, never written: with a nil lender it is the
// session's — the slice and the tuples' field arrays, which the caller must
// not touch afterwards — and with a lender it is on loan until the runtime
// calls lender.Release, exactly once, after the batch's last tuple was
// published, skipped (session closed) or dropped (DropOldest), from
// whichever goroutine did that. reads is the set of fields the tuples hold
// (nil: every field), normally what Reads returned when they were decoded;
// the others may hold anything. The worker checks that the session still
// reads no field outside it before publishing the batch, and panics if it
// does — a programming error (see Engine). sentNs is the client-send
// unix-nano timestamp of a trace-sampled wire batch, 0 otherwise: the
// batch's first tuple is then timed into the manager's stage histograms as
// it moves through the shard. Detection behaviour is identical to feeding
// the tuples one by one.
func (s *Session) FeedLent(tuples []stream.Tuple, reads *stream.ReadSet, sentNs int64, lender Lender) error {
	return s.mgr.enqueue(s, tuples, reads, sentNs, lender)
}

// OnDetection registers a listener for this session's detections; the
// returned function removes it. Listeners run synchronously on the shard
// worker goroutine — keep them fast. A listener may close its own (or any)
// session via Close/CloseSession, but must not call Manager.Close, which
// waits for the very worker the listener runs on.
func (s *Session) OnDetection(fn func(anduin.Detection)) func() {
	return s.engine.Subscribe(fn)
}

// SetCollect switches the internal detection buffer on or off. Sessions
// start collecting; consumers that stream every detection out through
// OnDetection (e.g. the network ingestion layer) disable it to keep
// long-lived sessions memory-bounded. Disabling does not clear detections
// already buffered — drain them with TakeDetections if needed.
func (s *Session) SetCollect(enabled bool) { s.collect.Store(enabled) }

// Detections returns a copy of all detections collected so far.
func (s *Session) Detections() []anduin.Detection {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return append([]anduin.Detection(nil), s.dets...)
}

// TakeDetections drains and returns the collected detections; long-lived
// sessions should prefer it over Detections to keep memory bounded.
func (s *Session) TakeDetections() []anduin.Detection {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	out := s.dets
	s.dets = nil
	return out
}

// Counters reports the session's ingestion counters: tuples admitted to the
// queue, tuples that left it (published or dropped), and drops.
func (s *Session) Counters() (in, out, dropped uint64) {
	return s.in.Load(), s.out.Load(), s.dropped.Load()
}

// Flush blocks until every tuple this session has enqueued so far was
// published or dropped. Call it after the session's producer is quiescent.
func (s *Session) Flush() {
	s.shard.await(s.drained)
}

// drained reports whether every tuple admitted so far has left the queue.
func (s *Session) drained() bool { return s.out.Load() >= s.in.Load() }

// Seal refuses further feeds without closing the session. A sealed session's
// admitted-tuple count is a stable migration cut ordinal: no tuple can slip
// past it until Unseal. Sealing an already-sealed session is a no-op.
func (s *Session) Seal() { s.sealed.Store(true) }

// Unseal re-admits feeds after a Seal — the clean abort of a migration whose
// target never materialized: the session resumes exactly where it paused,
// having lost nothing.
func (s *Session) Unseal() { s.sealed.Store(false) }

// Sealed reports whether the session currently refuses feeds.
func (s *Session) Sealed() bool { return s.sealed.Load() }

// CatchingUp reports whether the session is still replaying migrated
// history; its detections are replays of already-delivered ones while true.
func (s *Session) CatchingUp() bool { return s.catchingUp.Load() }

// CatchUpTarget returns the cut ordinal a catch-up session must reach (zero
// for sessions created normally).
func (s *Session) CatchUpTarget() uint64 { return s.catchUpTo }

// EndCatchUp finishes catch-up mode: it verifies that exactly CatchUpTo
// tuples were admitted — the cut-ordinal invariant; a mismatch means the
// replayed history diverged from the source and the engine state cannot be
// trusted — and re-enables detection delivery. The caller must Flush first
// so no catch-up detection is still in flight when delivery resumes.
func (s *Session) EndCatchUp() error {
	if s.catchUpTo == 0 {
		return fmt.Errorf("serve: session %q was not created at an ordinal", s.id)
	}
	if in := s.in.Load(); in != s.catchUpTo {
		return fmt.Errorf("serve: session %q caught up to %d tuples, cut ordinal is %d", s.id, in, s.catchUpTo)
	}
	s.catchingUp.Store(false)
	return nil
}

// Close detaches the session from the manager; queued tuples are skipped.
func (s *Session) Close() error {
	return s.mgr.CloseSession(s.id)
}

// shutdown marks the session closed and tears down its engine. Called with
// the session already removed from the manager table.
func (s *Session) shutdown() {
	if s.closed.Swap(true) {
		return
	}
	s.shard.sessions.Add(-1)
	s.engine.UndeployAll()
}
