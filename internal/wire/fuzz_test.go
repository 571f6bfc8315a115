package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/stream"
)

// FuzzDecodeFrame feeds adversarial bytes to the frame reader and the
// data-plane payload decoders. Contracts: never panic, never allocate
// beyond the declared limits however the length fields lie, and decode
// strictly enough that every accepted data-plane payload re-encodes to the
// identical bytes (canonical encoding).
func FuzzDecodeFrame(f *testing.F) {
	ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	seed := func(t FrameType, payload []byte) {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteFrame(t, payload); err == nil {
			f.Add(buf.Bytes())
		}
	}
	if p, err := AppendBatch(nil, 1, 3, []stream.Tuple{
		{Ts: ts, Seq: 1, Fields: []float64{1, 2, 3}},
		{Ts: ts.Add(33 * time.Millisecond), Seq: 2, Fields: []float64{-1, 0.5, 9e99}},
	}); err == nil {
		seed(FrameBatch, p)
	}
	if p, err := AppendDetections(nil, 1, 5, []anduin.Detection{
		{Gesture: "swipe_right", QueryID: 2, Start: ts, End: ts.Add(time.Second), Measures: []float64{7}},
	}); err == nil {
		seed(FrameDetections, p)
	}
	seed(FrameAttach, []byte(`{"version":2,"id":"u"}`))
	seed(FrameFlush, []byte(`{"handle":1}`))
	// Lying length prefix and truncated header.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(FrameBatch)})
	f.Add([]byte{0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewReader(bytes.NewReader(data))
		for i := 0; i < 16; i++ {
			fr, err := d.Next()
			if err != nil {
				return
			}
			if len(fr.Payload) > MaxFrame {
				t.Fatalf("frame payload of %d bytes exceeds MaxFrame", len(fr.Payload))
			}
			// The reader's buffer must never grow past the frame cap — the
			// over-allocation guard against hostile length prefixes.
			if cap(d.buf) > MaxFrame {
				t.Fatalf("reader buffer grew to %d bytes", cap(d.buf))
			}
			switch fr.Type {
			case FrameBatch:
				b, err := DecodeBatch(fr.Payload)
				if err != nil {
					continue
				}
				if len(b.Tuples) > MaxBatch || b.Fields > MaxTupleFields {
					t.Fatalf("decoded batch exceeds limits: %d×%d", len(b.Tuples), b.Fields)
				}
				re, err := AppendBatch(nil, b.Handle, b.Fields, b.Tuples)
				if err != nil {
					t.Fatalf("accepted batch does not re-encode: %v", err)
				}
				if !bytes.Equal(re, fr.Payload) {
					t.Fatalf("batch decode/encode not canonical:\nin:  %x\nout: %x", fr.Payload, re)
				}
			case FrameDetections:
				handle, dropped, dets, err := DecodeDetections(fr.Payload)
				if err != nil {
					continue
				}
				if len(dets) > MaxDetections {
					t.Fatalf("decoded %d detections", len(dets))
				}
				re, err := AppendDetections(nil, handle, dropped, dets)
				if err != nil {
					t.Fatalf("accepted detections do not re-encode: %v", err)
				}
				if !bytes.Equal(re, fr.Payload) {
					t.Fatalf("detections decode/encode not canonical:\nin:  %x\nout: %x", fr.Payload, re)
				}
			}
		}
	})
}

// FuzzDecodeBatch hits the batch decoder directly (no frame header), so the
// mutator spends its budget on payload structure. fieldSet picks a read set
// (bit j for field j, bit 63 for field 1000) of a schema 64 fields wide
// (1001 with field 1000). Decoding the payload against the set accepts
// exactly the payloads the full decode accepts that carry one field per
// member of the set, agrees with the full decode on them field for field,
// and re-encodes to the same bytes; the full decode re-encodes too. A batch
// the full decode accepts, encoded for the set as a client sends it,
// decodes against the set to what the full decode holds on the set's
// fields.
func FuzzDecodeBatch(f *testing.F) {
	ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	two := []stream.Tuple{{Ts: ts, Seq: 9, Fields: []float64{4, 5}}}
	if p, err := AppendBatch(nil, 3, 2, two); err == nil {
		f.Add(p, uint64(0b11)) // every field, as a recording session sends it
		f.Add(p, uint64(0b10)) // against a narrower set
	}
	if p, err := appendBatch(nil, 3, 2, two, 77); err == nil {
		f.Add(p, uint64(0)) // traced, against the empty set
	}
	p := appendReadBatch(nil, 3, two, []int{1}, 0)
	f.Add(p, uint64(0b10)) // against its own set
	f.Add(p, uint64(0b11)) // against a wider set
	// Traced, against a set reaching field 1000.
	f.Add(appendReadBatch(nil, 3, two, []int{0, 1}, 78), uint64(1<<63|0b10))
	var lying []byte
	lying = binary.BigEndian.AppendUint32(lying, 1)
	lying = binary.BigEndian.AppendUint16(lying, 0xffff) // claims 65535 tuples
	lying = binary.BigEndian.AppendUint16(lying, 0xffff) // of 65535 fields
	f.Add(lying, uint64(1<<63|1))
	recycled := new(BatchBuf)
	var dirty [][]byte
	for _, shape := range [][2]int{{MaxBatch, 3}, {1, 1}, {9, 45}} {
		p, err := AppendBatch(nil, 1, shape[1], poolTuples(shape[0], shape[1]))
		if err != nil {
			f.Fatal(err)
		}
		dirty = append(dirty, p)
	}
	f.Fuzz(func(t *testing.T, payload []byte, fieldSet uint64) {
		b, err := DecodeBatch(payload)
		var fields []int
		for j := range 63 {
			if fieldSet>>j&1 == 1 {
				fields = append(fields, j)
			}
		}
		width := 64
		if fieldSet>>63 == 1 {
			fields = append(fields, 1000)
			width = 1001
		}
		part, perr := decodeBatch(recycled, payload, stream.NewReadSet(fields...), width, false)
		if want := err == nil && b.Fields == len(fields); (perr == nil) != want {
			t.Fatalf("decoding fields %v: error %v, full decode %v of %d fields", fields, perr, err, b.Fields)
		}
		if perr == nil {
			if part.Fields != width || part.Handle != b.Handle || part.SentNs != b.SentNs || len(part.Tuples) != len(b.Tuples) {
				t.Fatalf("decoding fields %v: %d tuples %d wide, full decode %d", fields, len(part.Tuples), part.Fields, len(b.Tuples))
			}
			for i, tup := range part.Tuples {
				w := b.Tuples[i]
				if !tup.Ts.Equal(w.Ts) || tup.Seq != w.Seq {
					t.Fatalf("decoding fields %v: tuple %d headers differ", fields, i)
				}
				for k, j := range fields {
					if math.Float64bits(tup.Fields[j]) != math.Float64bits(w.Fields[k]) {
						t.Fatalf("decoding fields %v: tuple %d field %d differs", fields, i, j)
					}
				}
			}
			// A traced batch re-encodes with its timestamp; the one accepted
			// payload no encoder produces is a trace flag over a zero one.
			re := appendReadBatch(nil, part.Handle, part.Tuples, fields, part.SentNs)
			if !bytes.Equal(re, payload) && !(BatchTraced(payload) && part.SentNs == 0) {
				t.Fatalf("batch decoded for fields %v does not re-encode to itself", fields)
			}
		}
		if err != nil {
			return
		}
		re, err := appendBatch(nil, b.Handle, b.Fields, b.Tuples, b.SentNs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(re, payload) && !(BatchTraced(payload) && b.SentNs == 0) {
			t.Fatalf("batch decode/encode not canonical")
		}
		// The same batch encoded for the set, as a client sends it, decodes
		// to what the full decode holds on every field of the set.
		if len(fields) > 0 && fields[len(fields)-1] < b.Fields {
			sent := appendReadBatch(nil, b.Handle, b.Tuples, fields, b.SentNs)
			nb, err := decodeBatch(recycled, sent, stream.NewReadSet(fields...), b.Fields, false)
			if err != nil {
				t.Fatalf("batch encoded for fields %v does not decode: %v", fields, err)
			}
			if msg := sameBatchOn(nb, b, fields); msg != "" {
				t.Fatalf("batch encoded for fields %v: %s", fields, msg)
			}
		}
		// The recycled-buffer form must agree with the owning one whatever
		// the buffer held before: a wider batch, then a narrower one, then
		// one of another field count.
		for _, dirt := range dirty {
			if _, err := DecodeBatchInto(recycled, dirt); err != nil {
				t.Fatal(err)
			}
			into, err := DecodeBatchInto(recycled, payload)
			if err != nil {
				t.Fatalf("payload DecodeBatch accepts fails into a recycled buffer: %v", err)
			}
			if msg := sameBatch(into, b); msg != "" {
				t.Fatalf("decode into a recycled buffer: %s", msg)
			}
		}
	})
}

// FuzzDecodeReadsEqualsFull checks the read-set decode of a full-width
// payload — what a recording session and the stream store's readers run —
// against the full decode. The schema width is the one the payload declares,
// and fieldSet picks the read set (bit j for field j·width/64, so a set
// reaches across any width; no bit set is the empty set). Both decodes
// refuse the same payloads, and on an accepted one agree on the handle, the
// width, SentNs, every tuple's Ts and Seq, and every field of the set, bit
// for bit — whatever the recycled buffer held before.
func FuzzDecodeReadsEqualsFull(f *testing.F) {
	ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	two := []stream.Tuple{{Ts: ts, Seq: 9, Fields: []float64{4, math.NaN()}}}
	if p, err := AppendBatch(nil, 3, 2, two); err == nil {
		f.Add(p, uint64(0))             // the empty set: headers only
		f.Add(p, uint64(1<<32))         // the second field
		f.Add(p, ^uint64(0))            // every field
		f.Add(p[:len(p)-1], ^uint64(0)) // a body short by a byte
	}
	if p, err := appendBatch(nil, 3, 2, two, 77); err == nil {
		f.Add(p, uint64(1)) // traced
	}
	if p, err := AppendBatch(nil, 5, 45, poolTuples(3, 45)); err == nil {
		f.Add(p, uint64(0x8000_4000_2000_0001)) // a recording session's batch
	}
	f.Add(appendReadBatch(nil, 3, two, []int{1}, 0), uint64(1)) // narrowed, so one field wide
	var lying []byte
	lying = binary.BigEndian.AppendUint32(lying, 1)
	lying = binary.BigEndian.AppendUint16(lying, 0xffff) // claims 65535 tuples
	lying = binary.BigEndian.AppendUint16(lying, 0x03ff) // of 1023 fields
	f.Add(lying, ^uint64(0))
	recycled := new(BatchBuf)
	dirt, err := AppendBatch(nil, 1, 9, poolTuples(MaxBatch, 9))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte, fieldSet uint64) {
		want, err := DecodeBatch(payload)
		width := 0
		if len(payload) >= 8 {
			width = int(binary.BigEndian.Uint16(payload[6:8]) &^ batchTraceFlag)
		}
		var fields []int
		for j := range 64 {
			if fieldSet>>j&1 == 1 && width > 0 {
				fields = append(fields, j*width/64)
			}
		}
		reads := stream.NewReadSet(fields...)
		if _, derr := DecodeBatchInto(recycled, dirt); derr != nil {
			t.Fatal(derr)
		}
		got, gerr := DecodeBatchReads(recycled, payload, width, reads)
		if (gerr == nil) != (err == nil) {
			t.Fatalf("decoding fields %v of %d: error %v, the full decode's %v", reads.Fields(), width, gerr, err)
		}
		if err != nil {
			return
		}
		// A non-nil list: sameBatchOn reads nil as every field.
		if msg := sameBatchOn(got, want, append([]int{}, reads.Fields()...)); msg != "" {
			t.Fatalf("decoding fields %v of %d: %s", reads.Fields(), width, msg)
		}
	})
}
