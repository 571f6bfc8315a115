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

// Writer appends tuples to one recorded stream. Tuples are buffered into
// records of Options.BatchTuples and framed with a CRC; segments roll at
// Options.SegmentBytes, and sealing a segment writes its sparse index
// sidecar. Safe for concurrent use (appends serialize on an internal
// lock), though the usual producer is a single Recorder drain goroutine.
//
// Appended tuples are retained until their record is written; callers that
// mutate field slices after Append must pass a Clone. (Tuples taken off a
// live stream are immutable by convention and need no copy.)
type Writer struct {
	dir  string
	man  Manifest
	opts Options

	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer
	segIndex  int
	segBytes  int64
	records   uint64 // stream-wide records written (== next record ordinal)
	tuples    uint64 // tuples appended this writer (excludes history)
	bytes     uint64 // record bytes written this writer (headers + payloads)
	batch     []stream.Tuple
	encBuf    []byte
	closed    bool
	failed    error // sticky: a failed roll poisons the writer
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
	return &Writer{dir: dir, man: man, opts: opts.withDefaults(len(man.Fields))}
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
	return w.tuples + uint64(len(w.batch))
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
	w.bw = bufio.NewWriterSize(f, 64<<10)
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

// Append buffers one tuple; a full buffer is written out as one record. The
// writer keeps t, field array included, until that record is written: the
// caller gives the tuple away (a Recorder appends its own clones).
func (w *Writer) Append(t stream.Tuple) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return fmt.Errorf("store: writer for %q is closed", w.man.Stream)
	}
	if len(t.Fields) != len(w.man.Fields) {
		return fmt.Errorf("store: tuple has %d fields, stream %q records %d",
			len(t.Fields), w.man.Stream, len(w.man.Fields))
	}
	w.batch = append(w.batch, t)
	if len(w.batch) >= w.opts.BatchTuples {
		return w.writeRecordLocked()
	}
	return nil
}

// writeRecordLocked flushes the buffered tuples as one CRC-framed record
// and rolls the segment if it crossed the size threshold.
func (w *Writer) writeRecordLocked() error {
	if len(w.batch) == 0 {
		return nil
	}
	payload, err := wire.AppendBatch(w.encBuf[:0], uint32(w.records), len(w.man.Fields), w.batch)
	if err != nil {
		return err
	}
	w.encBuf = payload[:0]
	if rel := w.records - w.seg.baseRecord; rel%uint64(w.opts.IndexEvery) == 0 {
		w.seg.entries = append(w.seg.entries, idxEntry{
			tupleOrd: w.streamTuples,
			tsNs:     w.batch[0].Ts.UnixNano(),
			offset:   w.segBytes,
		})
	}
	if w.seg.firstTsNs == 0 {
		w.seg.firstTsNs = w.batch[0].Ts.UnixNano()
	}
	for i := range w.batch {
		if ns := w.batch[i].Ts.UnixNano(); ns > w.seg.lastTsNs {
			w.seg.lastTsNs = ns
		}
	}
	var hdr [recHeaderBytes]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.records++
	w.tuples += uint64(len(w.batch))
	w.streamTuples += uint64(len(w.batch))
	w.batch = w.batch[:0]
	w.bytes += uint64(recHeaderBytes + len(payload))
	w.segBytes += int64(recHeaderBytes + len(payload))
	if w.segBytes >= w.opts.SegmentBytes {
		if err := w.rollLocked(); err != nil {
			// A failed roll leaves no segment safe to append to — the old
			// file is sealed (or half-sealed), the new one never opened.
			// Poison the writer so every later call surfaces the fault
			// instead of quietly buffering into a closed file.
			w.failed = fmt.Errorf("store: stream %q: segment roll failed: %w", w.man.Stream, err)
			return w.failed
		}
	}
	return nil
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
	if w.failed != nil {
		return w.failed
	}
	if w.closed {
		return fmt.Errorf("store: writer for %q is closed", w.man.Stream)
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
