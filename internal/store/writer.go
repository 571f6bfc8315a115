package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"

	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// Writer appends tuples to one recorded stream. Tuples are buffered, encoded,
// into records of Options.BatchTuples and framed with a CRC; segments roll at
// Options.SegmentBytes, and sealing a segment writes its sparse index
// sidecar. Safe for concurrent use (appends serialize on an internal
// lock), though the usual producer is a single Recorder drain goroutine.
//
// The writer keeps bytes, never tuples: Append encodes its argument before it
// returns, so a caller may reuse the tuple's field array at once.
type Writer struct {
	dir  string
	man  Manifest
	opts Options

	mu       sync.Mutex
	f        *os.File
	bw       *bufio.Writer
	segIndex int
	segBytes int64
	records  uint64 // stream-wide records written (== next record ordinal)
	tuples   uint64 // tuples appended this writer (excludes history)
	bytes    uint64 // record bytes written this writer (headers + payloads)
	// rec is the record being built: room for its record and batch headers,
	// then the encoded bodies of the tuples appended since the last cut.
	rec       []byte
	pending   int // how many tuples rec holds; < BatchTuples between calls
	closed    bool
	failed    error // sticky: a failed record write or roll poisons the writer
	recovered RecoveryInfo

	// Sparse-index state of the segment currently being appended, written
	// out as the sidecar when the segment seals.
	streamTuples uint64 // stream-wide tuples written (== next tuple ordinal)
	seg          struct {
		baseRecord uint64
		baseTuple  uint64
		entries    []idxEntry
		firstTsNs  int64
		lastTsNs   int64
	}
}

func newWriter(dir string, man Manifest, opts Options) *Writer {
	return &Writer{dir: dir, man: man, opts: opts.withDefaults(len(man.Fields)), rec: make([]byte, recordHeadBytes)}
}

// Manifest returns the stream's immutable metadata.
func (w *Writer) Manifest() Manifest { return w.man }

// Dir returns the stream directory.
func (w *Writer) Dir() string { return w.dir }

// Recovered reports what Open had to repair; zero after Create.
func (w *Writer) Recovered() RecoveryInfo { return w.recovered }

// Records returns the stream-wide record count (history plus this run).
func (w *Writer) Records() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Tuples returns the number of tuples appended through this writer,
// including those still buffered.
func (w *Writer) Tuples() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tuples + uint64(w.pending)
}

// Bytes returns the record bytes (headers plus payloads) written through
// this writer — the admin plane's append-throughput gauge source. Excludes
// history and tuples still buffered.
func (w *Writer) Bytes() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.bytes
}

// resetSegState points the sparse-index accumulator at a fresh segment.
func (w *Writer) resetSegState(baseRecord uint64) {
	w.seg.baseRecord = baseRecord
	w.seg.baseTuple = w.streamTuples
	w.seg.entries = w.seg.entries[:0]
	w.seg.firstTsNs, w.seg.lastTsNs = 0, 0
}

// openSegment creates segment index with the given base record ordinal and
// makes it the append target.
func (w *Writer) openSegment(index int, baseRecord uint64) error {
	f, err := os.OpenFile(segmentPath(w.dir, index), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	hdr := encodeSegHeader(segHeader{fields: len(w.man.Fields), baseRecord: baseRecord})
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	w.f = f
	if w.bw == nil {
		w.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		// A roll: the sealed segment's buffer was flushed, and serves the
		// next segment instead of being left to the garbage collector.
		w.bw.Reset(f)
	}
	w.segIndex = index
	w.segBytes = segHeaderBytes
	w.records = baseRecord
	w.resetSegState(baseRecord)
	return nil
}

// recover positions the writer at the end of the last valid record,
// repairing a torn tail: the last segment is scanned record by record and
// truncated back to the last CRC-valid boundary; a tail segment whose very
// header is torn is removed and the scan falls back to the previous one.
// The reopened segment's sidecar (if any) is discarded — it described a
// sealed segment this writer is about to extend — and its sparse-index
// state is rebuilt from the scan so the next seal writes a correct one.
func (w *Writer) recover() error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for len(segs) > 0 {
		index := segs[len(segs)-1]
		path := segmentPath(w.dir, index)
		scan, headerOK, err := scanSegment(path, w.opts.IndexEvery)
		if err != nil {
			return fmt.Errorf("store: segment %d of stream %q: %w", index, w.man.Stream, err)
		}
		if !headerOK {
			if err := os.Remove(path); err != nil {
				return err
			}
			os.Remove(sidecarPath(w.dir, index))
			w.recovered.RemovedSegments++
			segs = segs[:len(segs)-1]
			continue
		}
		if scan.hdr.fields != len(w.man.Fields) {
			return fmt.Errorf("store: segment %d is %d fields wide, manifest declares %d",
				index, scan.hdr.fields, len(w.man.Fields))
		}
		baseTuple, err := tupleBaseOf(w.dir, segs, len(segs)-1)
		if err != nil {
			return fmt.Errorf("store: stream %q: %w", w.man.Stream, err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		if st.Size() > scan.validBytes {
			if err := f.Truncate(scan.validBytes); err != nil {
				f.Close()
				return err
			}
			w.recovered.TruncatedBytes += st.Size() - scan.validBytes
		}
		if _, err := f.Seek(scan.validBytes, 0); err != nil {
			f.Close()
			return err
		}
		// The sidecar, if one exists, described the sealed segment before
		// this writer reopened it for append; the seal path rewrites it.
		if err := os.Remove(sidecarPath(w.dir, index)); err != nil && !os.IsNotExist(err) {
			f.Close()
			return err
		}
		w.f = f
		w.bw = bufio.NewWriterSize(f, 64<<10)
		w.segIndex = index
		w.segBytes = scan.validBytes
		w.records = scan.hdr.baseRecord + scan.records
		w.streamTuples = baseTuple + scan.tuples
		w.seg.baseRecord = scan.hdr.baseRecord
		w.seg.baseTuple = baseTuple
		w.seg.entries = w.seg.entries[:0]
		for _, e := range scan.idx {
			e.tupleOrd += baseTuple // scan ordinals are segment-relative
			w.seg.entries = append(w.seg.entries, e)
		}
		w.seg.firstTsNs, w.seg.lastTsNs = scan.firstTsNs, scan.lastTsNs
		return nil
	}
	// Every segment was torn away (or the stream never got one): start over.
	w.streamTuples = 0
	return w.openSegment(1, 0)
}

// Append encodes one tuple into the record buffer; a full buffer is written
// out as one record. t is read only during the call.
func (w *Writer) Append(t stream.Tuple) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendableLocked(); err != nil {
		return err
	}
	if len(t.Fields) != len(w.man.Fields) {
		return w.arityError(len(t.Fields))
	}
	w.rec = wire.AppendTupleBody(w.rec, &t)
	w.pending++
	if w.pending >= w.opts.BatchTuples {
		return w.writeRecordLocked()
	}
	return nil
}

func (w *Writer) appendableLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return fmt.Errorf("store: writer for %q is closed", w.man.Stream)
	}
	return nil
}

func (w *Writer) arityError(got int) error {
	return fmt.Errorf("store: tuple has %d fields, stream %q records %d", got, w.man.Stream, len(w.man.Fields))
}

// appendEncoded appends n tuples that are already encoded — bodies is n
// times wire.AppendTupleBody at the stream's width, as a Recorder's taps
// queue them — and cuts records exactly where n Appends would have. Returns
// how many tuples were taken before the first error.
func (w *Writer) appendEncoded(bodies []byte, n int) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendableLocked(); err != nil {
		return 0, err
	}
	size := tupleBytes(len(w.man.Fields))
	for taken := 0; taken < n; {
		k := min(n-taken, w.opts.BatchTuples-w.pending)
		w.rec = append(w.rec, bodies[taken*size:(taken+k)*size]...)
		if w.pending += k; w.pending >= w.opts.BatchTuples {
			if err := w.writeRecordLocked(); err != nil {
				return taken, err
			}
		}
		taken += k
	}
	return n, nil
}

// recordHeadBytes is the room a record keeps in front of its tuple bodies:
// its record header and the wire batch header behind it.
const recordHeadBytes = recHeaderBytes + batchHeadBytes

// writeRecordLocked writes the buffered tuple bodies, if any, as one
// CRC-framed record — record header, wire batch header, bodies: the bytes
// wire.AppendBatch would have produced for the tuples — and rolls the segment
// if it crossed the size threshold. What the sparse index needs is read from
// the bodies: each starts with its event time.
func (w *Writer) writeRecordLocked() error {
	if w.pending == 0 {
		return nil
	}
	rec, count := w.rec, w.pending
	body := rec[recordHeadBytes:]
	firstNs := int64(binary.BigEndian.Uint64(body))
	if rel := w.records - w.seg.baseRecord; rel%uint64(w.opts.IndexEvery) == 0 {
		w.seg.entries = append(w.seg.entries, idxEntry{
			tupleOrd: w.streamTuples,
			tsNs:     firstNs,
			offset:   w.segBytes,
		})
	}
	if w.seg.firstTsNs == 0 {
		w.seg.firstTsNs = firstNs
	}
	for off, size := 0, len(body)/count; off < len(body); off += size {
		if ns := int64(binary.BigEndian.Uint64(body[off:])); ns > w.seg.lastTsNs {
			w.seg.lastTsNs = ns
		}
	}
	// The headers fill the room in front of the bodies — the batch header in
	// place, then the record header that sums it — so the record reaches
	// the buffered writer as one slice: at the default record size, larger
	// than its buffer, it is written straight through rather than copied in.
	wire.AppendBatchHeader(rec[recHeaderBytes:recHeaderBytes], uint32(w.records), count, len(w.man.Fields))
	payloadLen := len(rec) - recHeaderBytes
	binary.BigEndian.PutUint32(rec[0:4], uint32(payloadLen))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[recHeaderBytes:]))
	if _, err := w.bw.Write(rec); err != nil {
		return w.failLocked("record write", err)
	}
	w.records++
	w.tuples += uint64(count)
	w.streamTuples += uint64(count)
	w.rec, w.pending = rec[:recordHeadBytes], 0
	w.bytes += uint64(len(rec))
	w.segBytes += int64(len(rec))
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rollLocked(); err != nil {
			return w.failLocked("segment roll", err)
		}
	}
	return nil
}

// failLocked poisons the writer so every later call surfaces the fault
// instead of quietly buffering: a failed roll leaves no segment safe to
// append to — the old file is sealed (or half-sealed), the new one never
// opened — and a failed record write leaves a torn record at the tail (the
// file's buffered writer refuses everything after it anyway).
func (w *Writer) failLocked(what string, err error) error {
	w.failed = fmt.Errorf("store: stream %q: %s failed: %w", w.man.Stream, what, err)
	return w.failed
}

// rollLocked seals the current segment and opens the next one.
func (w *Writer) rollLocked() error {
	if err := w.sealLocked(); err != nil {
		return err
	}
	return w.openSegment(w.segIndex+1, w.records)
}

// sealLocked flushes and closes the current segment file, then writes its
// sparse index sidecar. The sidecar lands only after the data it describes
// is safely closed; a crash between the two just leaves a sealed segment
// without an index, which readers scan.
func (w *Writer) sealLocked() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.opts.Sync {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	return writeSidecar(sidecarPath(w.dir, w.segIndex), &segIndex{
		every:      w.opts.IndexEvery,
		baseRecord: w.seg.baseRecord,
		baseTuple:  w.seg.baseTuple,
		records:    w.records - w.seg.baseRecord,
		tuples:     w.streamTuples - w.seg.baseTuple,
		firstTsNs:  w.seg.firstTsNs,
		lastTsNs:   w.seg.lastTsNs,
		entries:    w.seg.entries,
	})
}

// Flush writes any buffered tuples out as a (possibly short) record and
// pushes everything to the OS; with Options.Sync it also fsyncs.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.appendableLocked(); err != nil {
		return err
	}
	if err := w.writeRecordLocked(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return err
	}
	if w.opts.Sync {
		return w.f.Sync()
	}
	return nil
}

// Close flushes buffered tuples and closes the segment file. The stream
// can be resumed later with Open.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.failed != nil {
		// The roll already closed (or lost) the segment file; there is
		// nothing consistent left to flush into.
		return w.failed
	}
	if err := w.writeRecordLocked(); err != nil {
		return err
	}
	return w.sealLocked()
}
