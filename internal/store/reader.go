package store

import (
	"errors"
	"fmt"
	"io"
	"os"

	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// Reader iterates a recorded stream record by record, in append order,
// verifying every record's CRC, canonical encoding and ordinal continuity
// as it goes. A record is read one of two ways: Next returns tuples the
// caller owns, Lend tuples in the reader's own recycled buffer for a caller
// that is done with each record before it asks for the next. Not safe for
// concurrent use.
type Reader struct {
	dir  string
	man  Manifest
	segs []int
	pos  int // next index into segs to open

	f          *os.File
	sr         *segmentReader // &seg while a segment is open, else nil
	seg        segmentReader  // reads each segment in turn, keeping its buffers
	started    bool           // a segment has been opened; nextRecord is anchored
	nextRecord uint64
	records    uint64
	tuples     uint64
	lent       wire.BatchBuf // what Lend decodes into
	// reads is what Next and Lend decode of each record (nil: every field):
	// a backfill sets its plans' raw read set for the evaluation's length.
	reads *stream.ReadSet

	meta   []segMeta // lazy per-segment metadata for seeks
	unlock func()    // archive compaction read-lock, released on Close
}

// segMeta caches what a seek needs to know about one segment without
// decoding it: its base record ordinal and (when present) its sparse
// index.
type segMeta struct {
	index    int
	base     uint64
	idx      *segIndex
	idxTried bool
}

// OpenReader opens a recorded stream for sequential reading.
func OpenReader(root, name string) (*Reader, error) {
	dir := StreamDir(root, name)
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	return &Reader{dir: dir, man: man, segs: segs}, nil
}

// Manifest returns the stream's immutable metadata.
func (r *Reader) Manifest() Manifest { return r.man }

// Fields returns the stream's tuple width.
func (r *Reader) Fields() int { return len(r.man.Fields) }

// Counters reports records and tuples read so far.
func (r *Reader) Counters() (records, tuples uint64) { return r.records, r.tuples }

// openNext advances to the next segment file. io.EOF when none remain.
func (r *Reader) openNext() error {
	r.closeSegment()
	if r.pos >= len(r.segs) {
		return io.EOF
	}
	index := r.segs[r.pos]
	r.pos++
	f, err := os.Open(segmentPath(r.dir, index))
	if err != nil {
		return err
	}
	if err := r.seg.open(f); err != nil {
		f.Close()
		return fmt.Errorf("store: segment %d: %w", index, err)
	}
	sr := &r.seg
	if sr.hdr.fields != len(r.man.Fields) {
		f.Close()
		return fmt.Errorf("store: segment %d is %d fields wide, manifest declares %d",
			index, sr.hdr.fields, len(r.man.Fields))
	}
	if !r.started {
		// The first segment anchors the ordinal chain: a compacted stream
		// legitimately starts past record zero.
		r.started = true
		r.nextRecord = sr.hdr.baseRecord
	} else if sr.hdr.baseRecord != r.nextRecord {
		f.Close()
		return fmt.Errorf("store: segment %d starts at record %d, expected %d (missing segment?)",
			index, sr.hdr.baseRecord, r.nextRecord)
	}
	r.f, r.sr = f, sr
	return nil
}

// Next returns the tuples of the next record, in memory the caller owns.
// io.EOF signals the clean end of the stream; a torn final record (crash
// without recovery) also ends the iteration cleanly, mirroring what Open
// would truncate. Any other decode failure is surfaced as an error — offline
// evaluation must not silently skip history.
func (r *Reader) Next() ([]stream.Tuple, error) {
	return r.read(new(wire.BatchBuf))
}

// Lend is Next into the reader's own buffer: the tuples, field arrays
// included, are valid until the next Next, Lend, seek or Close, and a caller
// that keeps one clones it. It allocates nothing once the buffer has grown to
// the stream's record size.
func (r *Reader) Lend() ([]stream.Tuple, error) {
	return r.read(&r.lent)
}

// read decodes the next record into bb. Whatever was lent before is over.
func (r *Reader) read(bb *wire.BatchBuf) ([]stream.Tuple, error) {
	r.lent.EndLoan()
	for {
		if r.sr == nil {
			if err := r.openNext(); err != nil {
				return nil, err
			}
		}
		b, err := r.sr.Next(bb, r.reads)
		if err == io.EOF {
			// Clean end of this segment; only the last may end the stream.
			if r.pos >= len(r.segs) {
				r.closeSegment()
				return nil, io.EOF
			}
			r.sr = nil
			continue
		}
		if err != nil {
			if errors.Is(err, errTorn) && r.pos >= len(r.segs) {
				r.closeSegment()
				return nil, io.EOF
			}
			return nil, err
		}
		r.nextRecord++
		r.records++
		r.tuples += uint64(len(b.Tuples))
		return b.Tuples, nil
	}
}

// closeSegment also ends whatever Lend lent: every seek and Close come
// through here.
func (r *Reader) closeSegment() {
	r.lent.EndLoan()
	if r.f != nil {
		r.f.Close()
		r.f, r.sr = nil, nil
	}
}

// Close releases the reader's file handle (and, for readers opened
// through an Archive, its compaction read-lock).
func (r *Reader) Close() error {
	r.closeSegment()
	if r.unlock != nil {
		r.unlock()
		r.unlock = nil
	}
	return nil
}

// ReadAll loads an entire recorded stream into memory — convenient for
// tests and small histories; replay and backfill stream instead.
func ReadAll(root, name string) ([]stream.Tuple, error) {
	r, err := OpenReader(root, name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []stream.Tuple
	for {
		tuples, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, tuples...)
	}
}
