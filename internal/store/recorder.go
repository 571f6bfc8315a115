package store

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"gesturecep/internal/obs"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// DefaultRecorderBuffer is the default depth of a Recorder's tap buffer, in
// tuples. What it buys is time: how long the disk may stall before the
// recording loses tuples. A write() routinely blocks for 100–300 ms once the
// kernel starts writing dirty pages back, and a saturated bulk session feeds
// some 45 000 tuples a second, so 16 384 tuples ride out ≈ 350 ms (a 30 Hz
// interactive session, nine minutes). The memory is only used while a
// backlog exists: the tuple's encoded size per queued tuple (376 B at kinect
// width), 6 MiB at the bound.
const DefaultRecorderBuffer = 16384

// Recorder decouples a live serving session from disk: the Tap function is
// installed on the session's feed path and only ever encodes the tuple onto
// a bounded in-memory backlog of bytes, so recording can never stall
// ingestion — if the disk falls behind, tuples are dropped from the
// recording (never from detection) and counted. A single drain goroutine
// owns the Writer: it takes the whole backlog in one swap whenever there is
// one, so taps and drain meet once per burst, not once per tuple.
type Recorder struct {
	w      *Writer
	fields int // the stream's width; a tuple of any other is refused
	limit  int64
	notify chan struct{} // the backlog went from empty to non-empty
	syncCh chan chan error
	quit   chan struct{}
	done   chan struct{}

	// mu guards the tap side of the backlog. It also makes Close a barrier
	// for in-flight taps: a tap appends under it, Close flips closed under
	// it, so once Close holds the lock no tap can still sneak a tuple into
	// the backlog uncounted — Recorded()+Dropped() equals the number of tap
	// calls exactly.
	mu      sync.Mutex
	pending []byte // tapped and not yet taken by the drain: one encoded tuple body after another
	closed  bool

	queued   atomic.Int64 // tapped and not yet handed to the writer; ≤ limit
	recorded atomic.Uint64
	dropped  atomic.Uint64
	err      atomic.Pointer[error] // first error, the writer's or a tap's

	closeOnce sync.Once
	closeErr  error
}

// NewRecorder starts recording into w, taking ownership of it (Close
// closes the writer). buffer <= 0 selects DefaultRecorderBuffer.
func NewRecorder(w *Writer, buffer int) *Recorder {
	if buffer <= 0 {
		buffer = DefaultRecorderBuffer
	}
	r := &Recorder{
		w:      w,
		fields: len(w.man.Fields),
		limit:  int64(buffer),
		notify: make(chan struct{}, 1),
		syncCh: make(chan chan error),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.drain()
	return r
}

// Tap returns the function to install on the live feed path (e.g. as
// serve.SessionOptions.Tap). It never blocks on the disk: a full backlog or
// a recorder that has stopped counts the tuple as dropped and moves on.
// (The lock is held for one tuple's encoding; it contends only with the
// drain's swap and with Close.) The tuple is only lent to the tap, and the
// tap keeps none of it: what is queued is its wire encoding, written while
// the loan lasts — and only once the tuple is going to be queued, so a
// recorder that drops costs nothing.
func (r *Recorder) Tap() func(stream.Tuple) { return r.tap }

func (r *Recorder) tap(t stream.Tuple) {
	r.mu.Lock()
	if r.closed || r.err.Load() != nil || r.queued.Load() >= r.limit {
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	if len(t.Fields) != r.fields {
		// What Writer.Append would have answered; the recording ends here.
		r.fail(r.w.arityError(len(t.Fields)))
		r.mu.Unlock()
		r.dropped.Add(1)
		return
	}
	r.queued.Add(1)
	first := len(r.pending) == 0
	r.pending = wire.AppendTupleBody(r.pending, &t)
	r.mu.Unlock()
	if first {
		select {
		case r.notify <- struct{}{}:
		default: // a wake-up is already on its way
		}
	}
}

// drain moves tuples from the backlog to the writer until Close.
func (r *Recorder) drain() {
	defer close(r.done)
	var spare []byte
	for {
		select {
		case <-r.notify:
			spare = r.drainBacklog(spare)
		case reply := <-r.syncCh:
			// Serviced on this goroutine so the backlog sweep and the
			// writer flush never race an append.
			spare = r.drainBacklog(spare)
			if err := r.Err(); err != nil {
				reply <- err
			} else {
				reply <- r.w.Flush()
			}
		case <-r.quit:
			// Whatever the taps managed to queue before Close.
			r.drainBacklog(spare)
			return
		}
	}
}

// maxSpareTuples bounds the backlog capacity kept between bursts, so one
// long disk stall does not pin its high-water mark for the recording's life.
const maxSpareTuples = 2048

// drainBacklog takes everything the taps have queued — leaving them spare,
// emptied, to queue into — and hands it to the writer. It returns the buffer
// it took, emptied, as the next swap's spare.
func (r *Recorder) drainBacklog(spare []byte) []byte {
	r.mu.Lock()
	batch := r.pending
	r.pending = spare
	r.mu.Unlock()
	size := tupleBytes(r.fields)
	if n := len(batch) / size; n > 0 {
		r.append(batch, n)
		r.queued.Add(-int64(n))
	}
	if cap(batch) > maxSpareTuples*size {
		return nil
	}
	return batch[:0]
}

// Sync drains the tap backlog and flushes the writer, so that every tuple
// tapped so far becomes visible to a store.Reader. Call it only once the
// session feeding the tap is quiescent (sealed and flushed, as during a
// migration) — with a producer still running there is no meaningful "all
// tuples" to sync. Returns the first writer error, if any.
func (r *Recorder) Sync() error {
	reply := make(chan error, 1)
	select {
	case r.syncCh <- reply:
		return <-reply
	case <-r.done:
		return fmt.Errorf("store: recorder for %q is closed", r.Stream())
	}
}

// append hands n encoded tuples to the writer and counts each of them,
// recorded or dropped. (A writer that has failed refuses them all; a tap
// that has, refused only what came after.)
func (r *Recorder) append(bodies []byte, n int) {
	taken, err := r.w.appendEncoded(bodies, n)
	if err != nil {
		r.fail(err)
	}
	r.recorded.Add(uint64(taken))
	r.dropped.Add(uint64(n - taken))
}

// fail ends the recording with err, unless an earlier error already has.
func (r *Recorder) fail(err error) { r.err.CompareAndSwap(nil, &err) }

// Recorded returns the number of tuples handed to the writer.
func (r *Recorder) Recorded() uint64 { return r.recorded.Load() }

// Dropped returns the number of tuples lost to a full buffer, a stopped
// recorder or a failed writer.
func (r *Recorder) Dropped() uint64 { return r.dropped.Load() }

// Err returns the first writer error, if any; once set, the recorder stops
// appending and counts everything as dropped.
func (r *Recorder) Err() error {
	if err := r.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Stream returns the name of the recorded stream.
func (r *Recorder) Stream() string { return r.w.Manifest().Stream }

// Close stops the taps, drains the buffer and closes the writer.
// Idempotent; taps installed on still-live sessions keep working (counting
// drops) after Close.
func (r *Recorder) Close() error {
	r.closeOnce.Do(func() {
		// The lock waits out in-flight taps, so every tuple that passed a
		// closed-check is in the backlog before quit is signalled and the
		// drain's final sweep picks it up.
		r.mu.Lock()
		r.closed = true
		r.mu.Unlock()
		close(r.quit)
		<-r.done
		r.closeErr = r.w.Close()
		if r.closeErr == nil {
			r.closeErr = r.Err()
		}
	})
	return r.closeErr
}

// Archive manages the recordings of a whole server under one root
// directory: one recorded stream per session, with name collisions (e.g.
// a remote client reusing a session ID) resolved by a numeric suffix.
// Safe for concurrent use.
type Archive struct {
	root   string
	schema *stream.Schema
	opts   Options
	buffer int
	gate   *streamGate // compaction vs. reader serialization, per stream

	mu     sync.Mutex
	open   map[string]*Recorder // by stream name (suffix included)
	byName map[string]*Recorder // by originally requested session name
	origOf map[string]string    // stream name -> originally requested name
	closed bool
	// done totals the recordings that have ended. A recording moves from
	// open into done in one step under mu, after its Close has drained
	// the backlog, so a scrape counts every recording exactly once.
	done recordCounts
}

// recordCounts are the recording throughput counters of WriteProm.
type recordCounts struct{ tuples, dropped, bytes uint64 }

func (c *recordCounts) add(rec *Recorder) {
	c.tuples += rec.Recorded()
	c.dropped += rec.Dropped()
	c.bytes += rec.w.Bytes()
}

// NewArchive creates an archive rooted at dir whose streams all have the
// given schema; streams are created lazily by Record. buffer <= 0 selects
// DefaultRecorderBuffer per recorder.
func NewArchive(root string, schema *stream.Schema, opts Options, buffer int) *Archive {
	return &Archive{
		root: root, schema: schema, opts: opts, buffer: buffer,
		gate:   newStreamGate(),
		open:   make(map[string]*Recorder),
		byName: make(map[string]*Recorder),
		origOf: make(map[string]string),
	}
}

// OpenReader opens a recorded stream for reading under the archive's
// compaction gate: the reader holds the stream's read lock until Close, so
// a concurrent compaction pass (Archive.NewCompactor) can never rewrite or
// delete the stream's files while it is being read. Prefer this over the
// package-level OpenReader whenever the archive has a compactor attached.
func (a *Archive) OpenReader(name string) (*Reader, error) {
	lock := a.gate.of(name)
	lock.RLock()
	r, err := OpenReader(a.root, name)
	if err != nil {
		lock.RUnlock()
		return nil, err
	}
	r.unlock = lock.RUnlock
	return r, nil
}

// Record creates a fresh recorded stream for the given session and returns
// its recorder. If a stream of that name already exists (an earlier run,
// or a reused session ID), ".2", ".3", … suffixes are tried.
func (a *Archive) Record(name string) (*Recorder, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, fmt.Errorf("store: archive %s is closed", a.root)
	}
	candidate := name
	for n := 2; ; n++ {
		_, inUse := a.open[candidate]
		if !inUse && !Exists(a.root, candidate) {
			break
		}
		candidate = fmt.Sprintf("%s.%d", name, n)
	}
	w, err := Create(a.root, candidate, a.schema, a.opts)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder(w, a.buffer)
	a.open[candidate] = rec
	a.byName[name] = rec
	a.origOf[candidate] = name
	return rec, nil
}

// LiveRecorder returns the open recorder serving the given session name,
// resolving any collision suffix the archive chose for the stream — the
// lookup a migration uses to find a live session's recorded history. ok is
// false when no recording is open for that session.
func (a *Archive) LiveRecorder(name string) (*Recorder, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec, ok := a.byName[name]
	return rec, ok
}

// Release closes one recorder and moves it from the open recordings into
// the done totals. Called when its session ends; Close handles any
// recorder not released by then, and a second release is a no-op.
func (a *Archive) Release(rec *Recorder) error {
	err := rec.Close() // drains the backlog, so the counters read below are final
	name := rec.Stream()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.open[name] != rec {
		return err
	}
	delete(a.open, name)
	if orig, ok := a.origOf[name]; ok {
		delete(a.origOf, name)
		if a.byName[orig] == rec {
			delete(a.byName, orig)
		}
	}
	a.done.add(rec)
	return err
}

// Abort closes one recorder and deletes its recording entirely — for
// streams whose session never came to life (e.g. a failed attach), so
// retries do not litter the archive with empty streams and burn ID
// suffixes.
func (a *Archive) Abort(rec *Recorder) error {
	closeErr := a.Release(rec)
	if err := os.RemoveAll(rec.w.Dir()); err != nil {
		return err
	}
	return closeErr
}

// WriteProm emits the recording throughput counters of every recording
// the archive has made, open ones included, in Prometheus text format.
func (a *Archive) WriteProm(w *obs.PromWriter) {
	c := a.counts()
	w.Counter("store_record_tuples_total", "Tuples appended to session recordings.", nil, c.tuples)
	w.Counter("store_record_dropped_total", "Tuples lost to full recording buffers.", nil, c.dropped)
	w.Counter("store_record_bytes_total", "Record bytes written to session recordings.", nil, c.bytes)
}

// counts sums the done totals and the open recordings. It reads the open
// ones after letting go of mu, since a writer's byte count waits out a
// record write in progress; a recording released meanwhile is still
// counted once, among the open ones, just not yet at its final value.
func (a *Archive) counts() recordCounts {
	a.mu.Lock()
	c := a.done
	open := make([]*Recorder, 0, len(a.open))
	for _, rec := range a.open {
		open = append(open, rec)
	}
	a.mu.Unlock()
	for _, rec := range open {
		c.add(rec)
	}
	return c
}

// Close closes every recorder still open. The archive directory remains
// readable with OpenReader/ListStreams.
func (a *Archive) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	recs := make([]*Recorder, 0, len(a.open))
	for _, rec := range a.open {
		recs = append(recs, rec)
	}
	a.mu.Unlock()
	var first error
	for _, rec := range recs {
		if err := a.Release(rec); err != nil && first == nil {
			first = err
		}
	}
	return first
}
