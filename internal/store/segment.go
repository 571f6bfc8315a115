package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

const (
	segmentMagic   = 0x47534547 // "GSEG"
	segHeaderBytes = 16         // magic u32 | version u8 | reserved u8 | fields u16 | baseRecord u64
	recHeaderBytes = 8          // length u32 | crc32 u32
	segmentSuffix  = ".seg"
)

// segHeader is the decoded fixed header of one segment file.
type segHeader struct {
	fields     int
	baseRecord uint64
}

func encodeSegHeader(h segHeader) [segHeaderBytes]byte {
	var b [segHeaderBytes]byte
	binary.BigEndian.PutUint32(b[0:4], segmentMagic)
	b[4] = FormatVersion
	binary.BigEndian.PutUint16(b[6:8], uint16(h.fields))
	binary.BigEndian.PutUint64(b[8:16], h.baseRecord)
	return b
}

func decodeSegHeader(b []byte) (segHeader, error) {
	if len(b) < segHeaderBytes {
		return segHeader{}, fmt.Errorf("store: segment header of %d bytes, want %d", len(b), segHeaderBytes)
	}
	if magic := binary.BigEndian.Uint32(b[0:4]); magic != segmentMagic {
		return segHeader{}, fmt.Errorf("store: bad segment magic %#08x", magic)
	}
	if v := b[4]; v != FormatVersion {
		return segHeader{}, fmt.Errorf("store: segment format version %d, this build reads %d", v, FormatVersion)
	}
	h := segHeader{
		fields:     int(binary.BigEndian.Uint16(b[6:8])),
		baseRecord: binary.BigEndian.Uint64(b[8:16]),
	}
	if h.fields == 0 || h.fields > wire.MaxTupleFields {
		return segHeader{}, fmt.Errorf("store: segment declares %d fields (want 1..%d)", h.fields, wire.MaxTupleFields)
	}
	return h, nil
}

// segmentPath names the index-th segment of a stream directory.
func segmentPath(dir string, index int) string {
	return filepath.Join(dir, fmt.Sprintf("%012d%s", index, segmentSuffix))
}

// listSegments returns the sorted segment indices present in dir.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) != 12+len(segmentSuffix) || filepath.Ext(name) != segmentSuffix {
			continue
		}
		var idx int
		if _, err := fmt.Sscanf(name, "%012d.seg", &idx); err != nil || idx <= 0 {
			continue
		}
		out = append(out, idx)
	}
	sort.Ints(out)
	return out, nil
}

// noFields is the empty read set: decoding a record for it validates the
// record whole and converts no field — what a scan that needs only the
// records' event times, or that skips them, reads.
var noFields = stream.NewReadSet()

// errTorn marks a segment tail that ends mid-record: a clean truncation
// point for recovery, an end-of-data condition nowhere else.
var errTorn = errors.New("store: torn record at segment tail")

// segmentReader decodes one segment file record by record, reusing one
// payload buffer. It validates everything a hostile or corrupted file
// could lie about before allocating: record lengths are bounded by
// MaxRecordBytes, payloads must CRC-check, decode canonically under the
// wire codec, match the expected schema width and continue the record
// ordinal sequence.
type segmentReader struct {
	r       *bufio.Reader
	hdr     segHeader
	next    uint64 // stream-wide ordinal expected of the next record
	buf     []byte
	payload []byte // the record Next last accepted, CRC-checked, inside buf; valid until the next call
	rechdr  [recHeaderBytes]byte
}

// newSegmentReader reads and validates the segment header. wantFields and
// wantBase are checked when non-negative / non-max (the fuzz target reads
// segments standalone and passes no expectations).
func newSegmentReader(r io.Reader) (*segmentReader, error) {
	sr := new(segmentReader)
	if err := sr.open(r); err != nil {
		return nil, err
	}
	return sr, nil
}

// open makes sr read segment r, validating its header. The buffers sr
// already holds are kept: a Reader moves one segmentReader from segment to
// segment rather than growing new ones for each.
func (sr *segmentReader) open(r io.Reader) error {
	sr.reset(r)
	var hb [segHeaderBytes]byte
	if _, err := io.ReadFull(sr.r, hb[:]); err != nil {
		return fmt.Errorf("store: short segment header: %w", err)
	}
	hdr, err := decodeSegHeader(hb[:])
	if err != nil {
		return err
	}
	sr.hdr, sr.next = hdr, hdr.baseRecord
	return nil
}

// openAt is open for a file already positioned at a record boundary
// mid-segment — the seek path, which validated the header and picked the
// position from the sparse index. next is the stream-wide ordinal of the
// record at that position.
func (sr *segmentReader) openAt(r io.Reader, hdr segHeader, next uint64) {
	sr.reset(r)
	sr.hdr, sr.next = hdr, next
}

// reset points sr's buffered reader at r, dropping whatever it buffered.
func (sr *segmentReader) reset(r io.Reader) {
	if sr.r == nil {
		sr.r = bufio.NewReaderSize(r, 64<<10)
	} else {
		sr.r.Reset(r)
	}
	sr.payload = nil
}

// Next decodes one record into bb, which decides who owns the tuples: a fresh
// buffer gives the caller memory to keep, a recycled one a loan that lasts
// until bb is decoded into again. Of the fields every record carries only
// those in reads (nil: every field) are decoded (wire.DecodeBatchReads);
// the record is validated whole whatever the set, the empty one included.
// io.EOF signals a clean end exactly at a record boundary; errTorn (wrapped)
// signals a truncated tail; any other error is corruption.
func (sr *segmentReader) Next(bb *wire.BatchBuf, reads *stream.ReadSet) (wire.Batch, error) {
	if _, err := io.ReadFull(sr.r, sr.rechdr[:]); err != nil {
		if err == io.EOF {
			return wire.Batch{}, io.EOF
		}
		return wire.Batch{}, fmt.Errorf("%w: short record header: %v", errTorn, err)
	}
	n := binary.BigEndian.Uint32(sr.rechdr[0:4])
	sum := binary.BigEndian.Uint32(sr.rechdr[4:8])
	if n == 0 && sum == 0 {
		// A zeroed record header is the tail of a crash into preallocated
		// (zero-filled) file space — the WAL convention for end-of-data.
		return wire.Batch{}, fmt.Errorf("%w: zeroed record header at record %d", errTorn, sr.next)
	}
	if n < batchHeadBytes || n > MaxRecordBytes {
		return wire.Batch{}, fmt.Errorf("store: record %d declares %d payload bytes (want %d..%d)",
			sr.next, n, batchHeadBytes, MaxRecordBytes)
	}
	if cap(sr.buf) < int(n) {
		sr.buf = make([]byte, n)
	}
	payload := sr.buf[:n]
	if _, err := io.ReadFull(sr.r, payload); err != nil {
		return wire.Batch{}, fmt.Errorf("%w: short record payload: %v", errTorn, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		// A genuine torn tail ends at physical EOF (a crash flushes a
		// prefix, possibly zero-filled by the filesystem). A CRC failure
		// with more bytes behind it is mid-file corruption — valid history
		// follows that a reader must not silently skip.
		if _, perr := sr.r.Peek(1); perr == io.EOF {
			return wire.Batch{}, fmt.Errorf("%w: record %d crc %#08x, stored %#08x", errTorn, sr.next, got, sum)
		}
		return wire.Batch{}, fmt.Errorf("store: record %d crc %#08x, stored %#08x (mid-segment corruption)", sr.next, got, sum)
	}
	b, err := wire.DecodeBatchReads(bb, payload, sr.hdr.fields, reads)
	if err != nil {
		return wire.Batch{}, fmt.Errorf("store: record %d: %w", sr.next, err)
	}
	if b.Handle != uint32(sr.next) {
		return wire.Batch{}, fmt.Errorf("store: record ordinal %d where %d was expected (spliced segment?)",
			b.Handle, uint32(sr.next))
	}
	sr.next++
	sr.payload = payload
	return b, nil
}

// segScan is the outcome of scanning one segment file for recovery.
type segScan struct {
	hdr        segHeader
	records    uint64 // valid records
	tuples     uint64
	validBytes int64 // offset just past the last valid record
	// Index rebuild material: one sparse entry per `every` records with a
	// segment-relative tuple ordinal (collected only when every > 0), and
	// the segment's event-time span.
	idx                 []idxEntry
	firstTsNs, lastTsNs int64
}

// scanSegment reads a segment file front to back and reports how much of
// it is valid. headerOK=false means the file is unusable from the header
// on (discard it entirely); otherwise validBytes is the safe truncation
// point — everything before it CRC-checked and decoded. A failure that is
// not a torn tail (mid-file corruption with data behind it) is returned
// as an error: truncating there would discard history that may still be
// valid, so recovery refuses rather than guessing. every > 0 additionally
// collects sparse-index entries so recovery can resume indexing the
// reopened segment.
func scanSegment(path string, every int) (s segScan, headerOK bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return segScan{}, false, err
	}
	defer f.Close()
	sr, err := newSegmentReader(f)
	if err != nil {
		return segScan{}, false, nil
	}
	s.hdr = sr.hdr
	s.validBytes = segHeaderBytes
	var bb wire.BatchBuf // every record is done with before the next is read
	for {
		b, err := sr.Next(&bb, noFields) // the index needs only event times
		if err == io.EOF || errors.Is(err, errTorn) {
			// Clean end or torn tail: everything before this point is
			// intact, everything after is a crash artifact.
			return s, true, nil
		}
		if err != nil {
			return s, true, err
		}
		if len(b.Tuples) > 0 {
			if every > 0 && s.records%uint64(every) == 0 {
				s.idx = append(s.idx, idxEntry{
					tupleOrd: s.tuples, // segment-relative; caller adds the base
					tsNs:     b.Tuples[0].Ts.UnixNano(),
					offset:   s.validBytes,
				})
			}
			if s.firstTsNs == 0 {
				s.firstTsNs = b.Tuples[0].Ts.UnixNano()
			}
			for i := range b.Tuples {
				if ns := b.Tuples[i].Ts.UnixNano(); ns > s.lastTsNs {
					s.lastTsNs = ns
				}
			}
		}
		s.records++
		s.tuples += uint64(len(b.Tuples))
		s.validBytes += recHeaderBytes + int64(len(sr.payload))
	}
}
