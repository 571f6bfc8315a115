package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Seeking. A seek positions the reader at a record boundary by binary
// search — over segment base ordinals first (one 16-byte header read per
// segment, cached), then over the sealed segment's sparse index entries —
// and scans forward at most IndexEvery-1 records to the exact target.
// Streams without sidecars (recorded before indexing, or whose sidecars a
// crash tore) degrade to the sequential scan the store always supported;
// CRC validation and torn-tail semantics are identical on every path
// because the scan-forward step decodes through the same segmentReader.
//
// Seeks reset the reader's position wholesale (forward or backward) and do
// not advance the Counters() totals; records skipped inside a seek were
// never "read".

// metaAt lazily loads what a seek needs to know about segment position i:
// its base record ordinal (from the segment header, which is
// authoritative) and its sparse index, if a valid one exists. A sidecar
// whose base disagrees with the header — e.g. left stale by a crashed
// compaction — is ignored.
func (r *Reader) metaAt(i int) (*segMeta, error) {
	if r.meta == nil {
		r.meta = make([]segMeta, len(r.segs))
		for j := range r.meta {
			r.meta[j].index = r.segs[j]
		}
	}
	m := &r.meta[i]
	if m.idxTried {
		return m, nil
	}
	hdr, err := readSegHeaderFile(segmentPath(r.dir, m.index))
	if err != nil {
		return nil, fmt.Errorf("store: segment %d: %w", m.index, err)
	}
	m.base = hdr.baseRecord
	if ix, err := readSidecar(sidecarPath(r.dir, m.index)); err == nil && ix.baseRecord == hdr.baseRecord {
		m.idx = ix
	}
	m.idxTried = true
	return m, nil
}

// readSegHeaderFile reads and decodes just the fixed header of a segment.
func readSegHeaderFile(path string) (segHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return segHeader{}, err
	}
	defer f.Close()
	var hb [segHeaderBytes]byte
	if _, err := io.ReadFull(f, hb[:]); err != nil {
		return segHeader{}, fmt.Errorf("short segment header: %w", err)
	}
	return decodeSegHeader(hb[:])
}

// seekTo opens segment position segPos at the given byte offset, where the
// record with stream-wide ordinal next begins.
func (r *Reader) seekTo(segPos int, offset int64, next uint64) error {
	r.closeSegment()
	index := r.segs[segPos]
	f, err := os.Open(segmentPath(r.dir, index))
	if err != nil {
		return err
	}
	var hb [segHeaderBytes]byte
	if _, err := io.ReadFull(f, hb[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: segment %d: short header: %w", index, err)
	}
	hdr, err := decodeSegHeader(hb[:])
	if err != nil {
		f.Close()
		return fmt.Errorf("store: segment %d: %w", index, err)
	}
	if hdr.fields != len(r.man.Fields) {
		f.Close()
		return fmt.Errorf("store: segment %d is %d fields wide, manifest declares %d",
			index, hdr.fields, len(r.man.Fields))
	}
	if offset > segHeaderBytes {
		if _, err := f.Seek(offset, io.SeekStart); err != nil {
			f.Close()
			return err
		}
	}
	r.f = f
	r.seg.openAt(f, hdr, next)
	r.sr = &r.seg
	r.pos = segPos + 1
	r.started = true
	r.nextRecord = next
	return nil
}

// seekEnd positions the reader past all recorded data; Next reports io.EOF.
func (r *Reader) seekEnd() {
	r.closeSegment()
	r.pos = len(r.segs)
	r.started = true
}

// scanToRecord advances through records until the next record to be
// returned has ordinal ord, validating each exactly as Next would — CRC,
// geometry, ordinal, Ts and Seq; a field has no invalid encoding — without
// converting a field: a skipped record is decoded for the empty read set.
// Running out of data — ord lies beyond the recorded history, or past a torn
// tail — is not an error; the reader is simply left at the end.
func (r *Reader) scanToRecord(ord uint64) error {
	for {
		if r.sr == nil {
			if r.pos >= len(r.segs) {
				return nil
			}
			if err := r.openNext(); err != nil {
				if err == io.EOF {
					return nil
				}
				return err
			}
		}
		if r.sr.next >= ord {
			r.nextRecord = r.sr.next
			return nil
		}
		_, err := r.sr.Next(&r.lent, noFields) // skipped, so nobody keeps it
		if err == io.EOF {
			r.nextRecord = r.sr.next
			r.sr = nil
			if r.pos >= len(r.segs) {
				r.closeSegment()
				return nil
			}
			continue
		}
		if err != nil {
			if errors.Is(err, errTorn) && r.pos >= len(r.segs) {
				r.closeSegment()
				return nil
			}
			return err
		}
	}
}

// segFor binary-searches the segment holding record ordinal rec: the last
// segment whose base is at or below it. Returns 0 when rec precedes all
// retained history (a compacted-away prefix).
func (r *Reader) segFor(rec uint64) (int, error) {
	lo, hi := 0, len(r.segs)-1
	ans := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		m, err := r.metaAt(mid)
		if err != nil {
			return 0, err
		}
		if m.base <= rec {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return ans, nil
}

// SeekOrdinal positions the reader so the next record returned by Next is
// the one with stream-wide ordinal rec (or the first retained record after
// it: a compacted-away ordinal resolves to the start of retained history,
// an ordinal past the end to io.EOF). O(log segments + log entries) plus a
// scan of at most IndexEvery-1 records; without an index it scans.
func (r *Reader) SeekOrdinal(rec uint64) error {
	if len(r.segs) == 0 {
		r.seekEnd()
		return nil
	}
	i, err := r.segFor(rec)
	if err != nil {
		return err
	}
	m, err := r.metaAt(i)
	if err != nil {
		return err
	}
	pos, next := int64(segHeaderBytes), m.base
	if ix := m.idx; ix != nil && rec > m.base && len(ix.entries) > 0 {
		j := int((rec - m.base) / uint64(ix.every))
		if j >= len(ix.entries) {
			j = len(ix.entries) - 1
		}
		pos, next = ix.entries[j].offset, m.base+uint64(j)*uint64(ix.every)
	}
	if err := r.seekTo(i, pos, next); err != nil {
		return err
	}
	return r.scanToRecord(rec)
}

// SeekTuple positions the reader at a record boundary at or before the
// tuple with stream-wide ordinal off and returns how many tuples remain
// between the new position and the target — the caller (Replay's Offset
// path) skips the remainder tuple by tuple, which keeps the delivered
// sequence byte-identical to a full scan. On a stream with no index at all
// the reader is left at the start and the full offset is returned; an
// offset inside a compacted-away prefix resolves to the start of retained
// history with zero remainder.
func (r *Reader) SeekTuple(off uint64) (uint64, error) {
	if len(r.segs) == 0 {
		r.seekEnd()
		return 0, nil
	}
	base := uint64(0) // tuple ordinal at segment i's start, per the sidecar chain
	for i := range r.segs {
		m, err := r.metaAt(i)
		if err != nil {
			return 0, err
		}
		if m.idx == nil {
			if i == 0 {
				// No index anywhere the chain could start: plain scan.
				return off, nil
			}
			// The indexed chain ends here (the active tail segment, or a
			// sidecar lost to a crash): position at this segment's start
			// and let the caller skip the rest.
			if err := r.seekTo(i, segHeaderBytes, m.base); err != nil {
				return 0, err
			}
			return off - base, nil
		}
		ix := m.idx
		if i == 0 && off < ix.baseTuple {
			// The target tuple was compacted away.
			if err := r.seekTo(0, segHeaderBytes, m.base); err != nil {
				return 0, err
			}
			return 0, nil
		}
		if off < ix.baseTuple+ix.tuples {
			pos, next, skip := int64(segHeaderBytes), m.base, off-ix.baseTuple
			j := sort.Search(len(ix.entries), func(j int) bool { return ix.entries[j].tupleOrd > off }) - 1
			if j >= 0 {
				pos, next = ix.entries[j].offset, m.base+uint64(j)*uint64(ix.every)
				skip = off - ix.entries[j].tupleOrd
			}
			if err := r.seekTo(i, pos, next); err != nil {
				return 0, err
			}
			return skip, nil
		}
		base = ix.baseTuple + ix.tuples
	}
	// off lies beyond everything recorded.
	r.seekEnd()
	return 0, nil
}

// SeekTime positions the reader at a record boundary at or before the
// first tuple with event time at. Sealed segments whose entire span
// precedes at are skipped without being read. Exact when record-level
// first timestamps are non-decreasing (live recordings are); otherwise
// conservative within a segment — it may position earlier than strictly
// needed, and callers filter by timestamp, as Backfill's Since/Until do.
func (r *Reader) SeekTime(at time.Time) error {
	atNs := at.UnixNano()
	for i := range r.segs {
		m, err := r.metaAt(i)
		if err != nil {
			return err
		}
		if m.idx != nil && m.idx.lastTsNs < atNs {
			continue // every tuple in this sealed segment is older than at
		}
		pos, next := int64(segHeaderBytes), m.base
		if ix := m.idx; ix != nil {
			j := sort.Search(len(ix.entries), func(j int) bool { return ix.entries[j].tsNs > atNs }) - 1
			if j >= 0 {
				pos, next = ix.entries[j].offset, m.base+uint64(j)*uint64(ix.every)
			}
		}
		return r.seekTo(i, pos, next)
	}
	// Everything recorded is older than at.
	r.seekEnd()
	return nil
}
