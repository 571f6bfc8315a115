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

// Recorder decouples a live serving session from disk: its taps only ever
// copy tuple bodies onto a bounded in-memory backlog of bytes, so recording
// can never stall ingestion — if the disk falls behind, tuples are dropped
// from the recording (never from detection) and counted. A single drain
// goroutine owns the Writer: it takes the whole backlog in one swap whenever
// there is one, so taps and drain meet once per burst, not once per tuple.
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
	// the backlog uncounted — Recorded()+Dropped() equals the number of
	// tuples tapped exactly.
	mu sync.Mutex
	// pending is what the taps queued and the drain has not taken: chunks
	// of chunkTuples encoded tuple bodies, the last one being filled. free
	// holds emptied chunks for the taps to fill again.
	pending [][]byte
	free    [][]byte
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

// TapBodies queues the tuple bodies of one batch — len(bodies) divided by
// one body's size tuples, each fields values wide, encoded as
// wire.AppendTupleBody does: what a wire batch payload carries, and what a
// record stores — with one lock and one copy per backlog chunk it reaches.
// It never blocks on the disk: what does not fit a full backlog, and
// everything tapped into a recorder that has stopped, is counted as dropped,
// tuple by tuple, as that many one-tuple taps would have been. bodies is
// read only during the call.
func (r *Recorder) TapBodies(bodies []byte, fields int) {
	size := tupleBytes(fields)
	r.mu.Lock()
	first := len(r.pending) == 0
	rest := bodies[:r.admitLocked(len(bodies)/size, fields)*size]
	for len(rest) > 0 {
		c := r.tailLocked()
		n := min(len(rest), cap(*c)-len(*c))
		*c = append(*c, rest[:n]...)
		rest = rest[n:]
	}
	first = first && len(r.pending) > 0
	r.mu.Unlock()
	if first {
		r.wake()
	}
}

// Tap returns a one-tuple tap, for a caller that holds lent tuples rather
// than their encoding: it queues t as TapBodies queues one body, encoding it
// straight into the backlog — and only once it is going to be queued, so a
// recorder that drops costs nothing. The tuple is only lent to the tap, and
// the tap keeps none of it.
func (r *Recorder) Tap() func(stream.Tuple) { return r.tap }

func (r *Recorder) tap(t stream.Tuple) {
	r.mu.Lock()
	first := len(r.pending) == 0
	if r.admitLocked(1, len(t.Fields)) == 0 {
		r.mu.Unlock()
		return
	}
	c := r.tailLocked()
	*c = wire.AppendTupleBody(*c, &t)
	r.mu.Unlock()
	if first {
		r.wake()
	}
}

// admitLocked decides how many of n tapped tuples, fields values wide, the
// backlog takes — a prefix, the ones that fit under the bound — and counts
// them queued and the rest dropped. A tuple of the wrong width ends the
// recording with what Writer.Append would have answered: the backlog holds
// bodies of one size. r.mu must be held.
func (r *Recorder) admitLocked(n, fields int) int {
	k := 0
	switch {
	case r.closed || r.err.Load() != nil:
	case fields != r.fields:
		r.fail(r.w.arityError(fields))
	default:
		k = int(min(int64(n), r.limit-r.queued.Load()))
	}
	r.queued.Add(int64(k))
	r.dropped.Add(uint64(n - k))
	return k
}

// tailLocked returns the chunk the taps fill, a fresh one when the last is
// full. r.mu must be held.
func (r *Recorder) tailLocked() *[]byte {
	n := len(r.pending)
	if n == 0 || len(r.pending[n-1]) == cap(r.pending[n-1]) {
		r.pending = append(r.pending, r.chunkLocked())
		n++
	}
	return &r.pending[n-1]
}

// wake tells the drain the backlog is no longer empty.
func (r *Recorder) wake() {
	select {
	case r.notify <- struct{}{}:
	default: // a wake-up is already on its way
	}
}

// drain moves tuples from the backlog to the writer until Close.
func (r *Recorder) drain() {
	defer close(r.done)
	var spare [][]byte
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

// chunkTuples is how many encoded tuples one chunk of the backlog holds.
// The backlog grows a chunk at a time, so a disk stall costs the memory of
// what it queued and no more: nothing is copied into a doubled buffer, and
// no outgrown buffer is left to the garbage collector.
const chunkTuples = 64

// maxSpareTuples bounds the emptied chunks kept between bursts, so one long
// disk stall does not pin its high-water mark for the recording's life.
const maxSpareTuples = 2048

// chunkLocked returns an empty chunk for the taps to fill, a spare one when
// there is one. r.mu must be held.
func (r *Recorder) chunkLocked() []byte {
	if n := len(r.free); n > 0 {
		c := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return c
	}
	return make([]byte, 0, chunkTuples*tupleBytes(r.fields))
}

// drainBacklog takes every chunk the taps have queued — leaving them spare,
// an empty list to queue into — hands the chunks to the writer in order and
// gives them back, emptied, for the taps to fill again. It returns the list
// it took, emptied, as the next swap's spare.
func (r *Recorder) drainBacklog(spare [][]byte) [][]byte {
	r.mu.Lock()
	chunks := r.pending
	r.pending = spare
	r.mu.Unlock()
	if len(chunks) == 0 {
		return chunks
	}
	size := tupleBytes(r.fields)
	for _, c := range chunks {
		if n := len(c) / size; n > 0 {
			r.append(c, n)
			r.queued.Add(-int64(n))
		}
	}
	r.mu.Lock()
	for i, c := range chunks {
		if len(r.free) < maxSpareTuples/chunkTuples {
			r.free = append(r.free, c[:0])
		}
		chunks[i] = nil
	}
	r.mu.Unlock()
	return chunks[:0]
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
	closed bool
	// done totals the recordings that have ended. A recording moves from
	// open into done in one step under mu, after its Close has drained
	// the backlog, so a scrape counts every recording exactly once.
	done recordCounts
	// endErrors counts session recordings whose end failed
	// (recording.End), which has no caller to report to.
	endErrors atomic.Uint64
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
		gate: newStreamGate(),
		open: make(map[string]*Recorder),
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
	return rec, nil
}

// RecordSession records a wire session (Record) and returns the recording
// the session keeps until it ends — what makes the archive a
// wire.Server's recording backend.
func (a *Archive) RecordSession(sessionID string) (wire.Recording, error) {
	rec, err := a.Record(sessionID)
	if err != nil {
		return nil, err
	}
	return &recording{Recorder: rec, a: a}, nil
}

// recording is one wire session's recorder and the archive it ends in.
type recording struct {
	*Recorder
	a *Archive
}

// History syncs the recorder and opens a reader on its stream under the
// archive's compaction gate, with the recorded count.
func (r *recording) History() (wire.HistoryReader, uint64, error) {
	if err := r.Sync(); err != nil {
		return nil, 0, err
	}
	hr, err := r.a.OpenReader(r.Stream())
	if err != nil {
		return nil, 0, err
	}
	return hr, r.Recorded(), nil
}

// End releases the recording, or deletes it when its session never came to
// life. A failure is counted in store_record_errors_total.
func (r *recording) End(aborted bool) {
	end := r.a.Release
	if aborted {
		end = r.a.Abort
	}
	if end(r.Recorder) != nil {
		r.a.endErrors.Add(1)
	}
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
	w.Counter("store_record_errors_total", "Session recordings whose end failed.", nil, a.endErrors.Load())
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
