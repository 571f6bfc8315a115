package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// buildSegment assembles valid segment bytes for fuzz seeds.
func buildSegment(fields int, base uint64, batches [][]stream.Tuple) []byte {
	hdr := encodeSegHeader(segHeader{fields: fields, baseRecord: base})
	out := append([]byte(nil), hdr[:]...)
	for i, tuples := range batches {
		payload, err := wire.AppendBatch(nil, uint32(base)+uint32(i), fields, tuples)
		if err != nil {
			continue
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
		out = append(out, payload...)
	}
	return out
}

// FuzzReadSegment feeds adversarial segment bytes to the record reader.
// Contracts (mirroring the wire fuzz targets): never panic, never allocate
// beyond MaxRecordBytes however the length fields lie, and accept only
// records that re-encode canonically — a record the reader returns is one
// the writer could have produced.
func FuzzReadSegment(f *testing.F) {
	ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	mk := func(n, fields int) []stream.Tuple {
		out := make([]stream.Tuple, n)
		for i := range out {
			fs := make([]float64, fields)
			for j := range fs {
				fs[j] = float64(i*j) - 1.5
			}
			out[i] = stream.Tuple{Ts: ts.Add(time.Duration(i) * time.Millisecond), Seq: uint64(i), Fields: fs}
		}
		return out
	}
	f.Add(buildSegment(3, 0, [][]stream.Tuple{mk(4, 3), mk(2, 3)}))
	f.Add(buildSegment(1, 7, [][]stream.Tuple{mk(1, 1)}))
	// Torn tail: a valid segment with its last bytes chopped off.
	whole := buildSegment(2, 0, [][]stream.Tuple{mk(8, 2)})
	f.Add(whole[:len(whole)-5])
	// Header only, short header, lying record length.
	hdr := encodeSegHeader(segHeader{fields: 5, baseRecord: 1})
	f.Add(append([]byte(nil), hdr[:]...))
	f.Add(hdr[:7])
	lying := append([]byte(nil), hdr[:]...)
	lying = binary.BigEndian.AppendUint32(lying, 0xffffffff)
	lying = binary.BigEndian.AppendUint32(lying, 0)
	f.Add(lying)

	f.Fuzz(func(t *testing.T, data []byte) {
		sr, err := newSegmentReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var bb wire.BatchBuf // recycled, as the lending readers do
		for i := 0; i < 64; i++ {
			b, err := sr.Next(&bb, nil)
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if cap(sr.buf) > MaxRecordBytes {
				t.Fatalf("record buffer grew to %d bytes", cap(sr.buf))
			}
			if len(b.Tuples) > wire.MaxBatch || b.Fields > wire.MaxTupleFields {
				t.Fatalf("accepted batch exceeds limits: %d×%d", len(b.Tuples), b.Fields)
			}
			if b.Fields != sr.hdr.fields {
				t.Fatalf("accepted batch of %d fields under a %d-field header", b.Fields, sr.hdr.fields)
			}
			re, err := wire.AppendBatch(nil, b.Handle, b.Fields, b.Tuples)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			// sr.payload is what the record was decoded from; canonical
			// encoding means the re-encode reproduces it exactly.
			if !bytes.Equal(re, sr.payload) {
				t.Fatalf("record decode/encode not canonical")
			}
		}
	})
}
