package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gesturecep/internal/obs"
	"gesturecep/internal/wire"
)

// Retention + compaction. A compaction run walks an archive root and
// reclaims expired history three ways, cheapest first: streams whose
// entire event-time span precedes the cutoff are deleted wholesale; fully
// expired segments are dropped off the front of a stream (never the
// middle — the record-ordinal chain must stay contiguous); and the
// now-oldest segment is rewritten without its expired prefix records. A
// rewrite copies the kept records' CRC-checked payloads as they are (a
// record keeps its ordinal, so not a byte of it changes), writes
// segment-then-sidecar under .tmp names and renames the segment before the
// sidecar — a crash between the two leaves a sidecar whose baseRecord
// disagrees with the new header, which readers detect and ignore.
//
// The read-lock protocol (the oidadb job-scheduled access pattern): every
// stream has a gate RWMutex owned by the Archive. Readers opened through
// Archive.OpenReader hold the read side for their whole lifetime; the
// compactor takes the write side per stream, so a live Reader never
// observes a half-rewritten stream and the compactor never deletes files
// out from under one. Streams with a live Recorder are skipped entirely —
// the writer owns the tail and fresh data is by definition unexpired.

// RetentionPolicy says what a compaction run may discard.
type RetentionPolicy struct {
	// MaxAge drops recorded data whose event time ended more than MaxAge
	// before the run's reference time. Zero retains everything (a run is
	// then a no-op). An empty stream's age is its creation time.
	MaxAge time.Duration
}

// CompactStats is one compaction run's outcome.
type CompactStats struct {
	Streams           int   // streams examined
	StreamsSkipped    int   // left alone: live recorder attached
	StreamsDropped    int   // deleted wholesale (entirely expired)
	SegmentsDropped   int   // whole segments dropped off stream fronts
	SegmentsRewritten int   // head segments rewritten without expired prefixes
	BytesReclaimed    int64 // disk bytes freed
}

// streamGate hands out the per-stream RWMutex compaction and archive
// readers synchronize on.
type streamGate struct {
	mu    sync.Mutex
	locks map[string]*sync.RWMutex
}

func newStreamGate() *streamGate {
	return &streamGate{locks: make(map[string]*sync.RWMutex)}
}

func (g *streamGate) of(stream string) *sync.RWMutex {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.locks[stream]
	if l == nil {
		l = &sync.RWMutex{}
		g.locks[stream] = l
	}
	return l
}

// Compactor applies a RetentionPolicy to an archive's root, either on
// demand (Run) or on a schedule (Start). Safe for concurrent use with
// readers opened through the archive; counters are cumulative across runs
// and exported to the admin plane via WriteProm.
type Compactor struct {
	arch *Archive
	pol  RetentionPolicy

	runs              atomic.Uint64
	failures          atomic.Uint64
	streamsDropped    atomic.Uint64
	segmentsDropped   atomic.Uint64
	segmentsRewritten atomic.Uint64
	bytesReclaimed    atomic.Uint64
	dur               *obs.Histogram
}

// NewCompactor builds a compactor wired to this archive: it serializes
// against readers opened through Archive.OpenReader and skips streams
// with a live recorder.
func (a *Archive) NewCompactor(pol RetentionPolicy) *Compactor {
	return &Compactor{arch: a, pol: pol, dur: obs.NewHistogram()}
}

// recording reports whether stream has a live recorder.
func (a *Archive) recording(stream string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, live := a.open[stream]
	return live
}

// Run executes one compaction pass with now as the reference time. Per-
// stream failures do not stop the pass; they are joined into the returned
// error after every stream has been visited.
func (c *Compactor) Run(now time.Time) (CompactStats, error) {
	start := time.Now()
	c.runs.Add(1)
	var stats CompactStats
	var errs []error
	defer func() {
		c.streamsDropped.Add(uint64(stats.StreamsDropped))
		c.segmentsDropped.Add(uint64(stats.SegmentsDropped))
		c.segmentsRewritten.Add(uint64(stats.SegmentsRewritten))
		c.bytesReclaimed.Add(uint64(stats.BytesReclaimed))
		c.failures.Add(uint64(len(errs)))
		c.dur.ObserveSince(start)
	}()
	if c.pol.MaxAge <= 0 {
		return stats, nil
	}
	cutoffNs := now.Add(-c.pol.MaxAge).UnixNano()
	streams, err := ListStreams(c.arch.root)
	if err != nil {
		return stats, err
	}
	for _, name := range streams {
		stats.Streams++
		if c.arch.recording(name) {
			stats.StreamsSkipped++
			continue
		}
		lock := c.arch.gate.of(name)
		lock.Lock()
		err := compactStream(StreamDir(c.arch.root, name), cutoffNs, &stats)
		lock.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("stream %q: %w", name, err))
		}
	}
	return stats, errors.Join(errs...)
}

// Start runs compaction passes every interval until the returned stop
// function is called. Pass errors are reported through onErr (nil ignores
// them).
func (c *Compactor) Start(interval time.Duration, onErr func(error)) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if _, err := c.Run(time.Now()); err != nil && onErr != nil {
					onErr(err)
				}
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
		})
	}
}

// WriteProm emits the compactor's counters and duration histogram in
// Prometheus exposition format — the admin plane's Collect hook.
func (c *Compactor) WriteProm(w *obs.PromWriter) {
	w.Counter("store_compact_runs_total", "Compaction passes executed.", nil, c.runs.Load())
	w.Counter("store_compact_failures_total", "Per-stream compaction failures.", nil, c.failures.Load())
	w.Counter("store_compact_streams_dropped_total", "Entirely expired streams deleted.", nil, c.streamsDropped.Load())
	w.Counter("store_compact_segments_dropped_total", "Whole expired segments dropped.", nil, c.segmentsDropped.Load())
	w.Counter("store_compact_segments_rewritten_total", "Head segments rewritten without expired prefixes.", nil, c.segmentsRewritten.Load())
	w.Counter("store_compact_bytes_reclaimed_total", "Disk bytes freed by compaction.", nil, c.bytesReclaimed.Load())
	w.Histogram("store_compact_seconds", "Compaction pass duration.", nil, c.dur.Snapshot())
}

// segSpan reads one segment's event-time span and sizes, preferring the
// sidecar and scanning without one.
type segSpan struct {
	lastTsNs int64
	records  uint64
	bytes    int64
	idx      *segIndex // nil when scanned
}

func spanOf(dir string, index int) (segSpan, error) {
	var sp segSpan
	if st, err := os.Stat(segmentPath(dir, index)); err == nil {
		sp.bytes = st.Size()
	}
	if ix, err := readSidecar(sidecarPath(dir, index)); err == nil {
		sp.lastTsNs, sp.records, sp.idx = ix.lastTsNs, ix.records, ix
		return sp, nil
	}
	scan, headerOK, err := scanSegment(segmentPath(dir, index), 0)
	if err != nil {
		return sp, err
	}
	if !headerOK {
		// Torn before the header: recovery discards it; treat as empty.
		return sp, nil
	}
	sp.lastTsNs, sp.records = scan.lastTsNs, scan.records
	return sp, nil
}

// compactStream applies the cutoff to one stream. The caller holds the
// stream's gate write lock.
func compactStream(dir string, cutoffNs int64, stats *CompactStats) error {
	man, err := readManifest(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // deleted between listing and locking
		}
		return err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return err
	}
	spans := make([]segSpan, len(segs))
	var lastNs int64
	var totalRecords uint64
	var total int64
	for i, index := range segs {
		if spans[i], err = spanOf(dir, index); err != nil {
			return err
		}
		if spans[i].lastTsNs > lastNs {
			lastNs = spans[i].lastTsNs
		}
		totalRecords += spans[i].records
		total += spans[i].bytes
	}
	if totalRecords == 0 {
		lastNs = man.CreatedUnixNs // empty streams age from creation
	}
	if lastNs < cutoffNs {
		// The whole stream — newest tuple included — predates the cutoff.
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		stats.StreamsDropped++
		stats.BytesReclaimed += total
		return nil
	}
	// Drop fully expired segments off the front; the final segment is
	// never dropped here (the stream as a whole is not expired, and the
	// tail is where a writer would resume).
	drop := 0
	for drop < len(segs)-1 && spans[drop].records > 0 && spans[drop].lastTsNs < cutoffNs {
		drop++
	}
	for i := 0; i < drop; i++ {
		if err := os.Remove(segmentPath(dir, segs[i])); err != nil {
			return err
		}
		os.Remove(sidecarPath(dir, segs[i]))
		stats.SegmentsDropped++
		stats.BytesReclaimed += spans[i].bytes
	}
	segs, spans = segs[drop:], spans[drop:]
	// Rewrite the head segment without its expired prefix records — only
	// a sealed, indexed head that is not the active tail, and only when
	// there is actually something to drop.
	if len(segs) < 2 || spans[0].idx == nil || spans[0].idx.firstTsNs >= cutoffNs {
		return nil
	}
	reclaimed, rewrote, err := rewriteHead(dir, segs[0], spans[0].idx, cutoffNs)
	if err != nil {
		return err
	}
	if rewrote {
		stats.SegmentsRewritten++
		stats.BytesReclaimed += reclaimed
	}
	return nil
}

// rewriteHead rewrites one sealed segment dropping the leading records
// whose every tuple predates the cutoff. Kept records keep their payload
// bytes — decoded only to validate them and to read their event times — in
// segment-and-sidecar .tmp files renamed into place, segment first.
func rewriteHead(dir string, index int, ix *segIndex, cutoffNs int64) (reclaimed int64, rewrote bool, err error) {
	path := segmentPath(dir, index)
	in, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer in.Close()
	sr, err := newSegmentReader(in)
	if err != nil {
		return 0, false, err
	}
	var dropRecords, dropTuples uint64
	// Buffer kept records' payloads while streaming through the file once;
	// a sealed segment is bounded by Options.SegmentBytes, so holding its
	// live suffix in memory is fine. The decoded tuples are looked at and
	// dropped record by record.
	type keptRecord struct {
		payload        []byte
		count          int
		firstNs, maxNs int64
	}
	var kept []keptRecord
	var bb wire.BatchBuf
	for {
		b, rerr := sr.Next(&bb, noFields) // only event times decide what is kept
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, false, rerr
		}
		rec := keptRecord{count: len(b.Tuples)}
		for i := range b.Tuples {
			ns := b.Tuples[i].Ts.UnixNano()
			if i == 0 {
				rec.firstNs = ns
			}
			rec.maxNs = max(rec.maxNs, ns)
		}
		if len(kept) == 0 && rec.maxNs < cutoffNs {
			dropRecords++
			dropTuples += uint64(rec.count)
			continue
		}
		rec.payload = append([]byte(nil), sr.payload...)
		kept = append(kept, rec)
	}
	bb.EndLoan()
	if dropRecords == 0 {
		return 0, false, nil
	}
	newBase := ix.baseRecord + dropRecords
	newBaseTuple := ix.baseTuple + dropTuples
	out := &segIndex{
		every:      ix.every,
		baseRecord: newBase,
		baseTuple:  newBaseTuple,
		records:    ix.records - dropRecords,
		tuples:     ix.tuples - dropTuples,
	}
	tmpSeg := path + ".tmp"
	f, err := os.OpenFile(tmpSeg, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, false, err
	}
	hdr := encodeSegHeader(segHeader{fields: sr.hdr.fields, baseRecord: newBase})
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		os.Remove(tmpSeg)
		return 0, false, err
	}
	off := int64(segHeaderBytes)
	tupleOrd := newBaseTuple
	for i, rec := range kept {
		if uint64(i)%uint64(ix.every) == 0 {
			out.entries = append(out.entries, idxEntry{tupleOrd: tupleOrd, tsNs: rec.firstNs, offset: off})
		}
		if out.firstTsNs == 0 {
			out.firstTsNs = rec.firstNs
		}
		out.lastTsNs = max(out.lastTsNs, rec.maxNs)
		var rh [recHeaderBytes]byte
		binary.BigEndian.PutUint32(rh[0:4], uint32(len(rec.payload)))
		binary.BigEndian.PutUint32(rh[4:8], crc32.ChecksumIEEE(rec.payload))
		if _, err := f.Write(rh[:]); err != nil {
			f.Close()
			os.Remove(tmpSeg)
			return 0, false, err
		}
		if _, err := f.Write(rec.payload); err != nil {
			f.Close()
			os.Remove(tmpSeg)
			return 0, false, err
		}
		off += recHeaderBytes + int64(len(rec.payload))
		tupleOrd += uint64(rec.count)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmpSeg)
		return 0, false, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmpSeg)
		return 0, false, err
	}
	var oldSize int64
	if st, err := os.Stat(path); err == nil {
		oldSize = st.Size()
	}
	// Segment first, sidecar second: a crash in between leaves a sidecar
	// whose baseRecord no longer matches the header, which readers ignore.
	if err := os.Rename(tmpSeg, path); err != nil {
		os.Remove(tmpSeg)
		return 0, false, err
	}
	if err := writeSidecar(sidecarPath(dir, index), out); err != nil {
		return 0, false, err
	}
	return oldSize - off, true, nil
}
