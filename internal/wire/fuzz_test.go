package wire

import (
	"bytes"
	"encoding/binary"
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
	seed(FrameAttach, []byte(`{"version":1,"id":"u"}`))
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
// (1001 with field 1000). On a full-width payload, decoding only the set
// must accept and refuse exactly what the full decode does and agree with
// it on every field in the set, and so must a decode of the same batch
// narrowed to the set. A narrowed payload only decodes against its set:
// DecodeBatch refuses it, and one decodeBatch accepts re-encodes to the
// same bytes.
func FuzzDecodeBatch(f *testing.F) {
	ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	two := []stream.Tuple{{Ts: ts, Seq: 9, Fields: []float64{4, 5}}}
	if p, err := AppendBatch(nil, 3, 2, two); err == nil {
		f.Add(p, uint64(0b10))
	}
	if p, err := appendBatch(nil, 3, 2, two, nil, 77); err == nil {
		f.Add(p, uint64(0))
	}
	if p, err := appendBatch(nil, 3, 2, two, []int{1}, 0); err == nil {
		f.Add(p, uint64(0b10)) // narrowed, decoded against its own set
		f.Add(p, uint64(0b11)) // narrowed, against a wider set
		f.Add(p, uint64(0))    // narrowed, against no set
	}
	if p, err := appendBatch(nil, 3, 2, two, []int{0, 1}, 78); err == nil {
		f.Add(p, uint64(0b11)) // narrowed and traced
	}
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
		fields := []int{} // not nil: sameBatchOn reads nil as every field
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
		set := stream.NewReadSet(fields...)
		part, perr := decodeBatch(recycled, payload, set, width)
		if BatchNarrowed(payload) {
			if err == nil {
				t.Fatal("DecodeBatch accepted a narrowed batch")
			}
			if perr != nil {
				return
			}
			if part.Fields != width || len(fields) == 0 {
				t.Fatalf("a narrowed batch decoded against fields %v is %d wide, want %d", fields, part.Fields, width)
			}
			re, err := appendBatch(nil, part.Handle, width, part.Tuples, fields, part.SentNs)
			if err != nil {
				t.Fatalf("accepted narrowed batch does not re-encode: %v", err)
			}
			if !bytes.Equal(re, payload) && !(BatchTraced(payload) && part.SentNs == 0) {
				t.Fatalf("narrowed batch decode/encode not canonical")
			}
			return
		}
		if (perr == nil) != (err == nil) || (err != nil && perr.Error() != err.Error()) {
			t.Fatalf("decoding fields %v: error %v, full decode %v", fields, perr, err)
		}
		if err != nil {
			return
		}
		if msg := sameBatchOn(part, b, fields); msg != "" {
			t.Fatalf("decoding fields %v: %s", fields, msg)
		}
		// A traced batch re-encodes with its timestamp; the one accepted
		// payload no encoder produces is a trace flag over a zero timestamp.
		re, err := appendBatch(nil, b.Handle, b.Fields, b.Tuples, nil, b.SentNs)
		if err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		if !bytes.Equal(re, payload) && !(BatchTraced(payload) && b.SentNs == 0) {
			t.Fatalf("batch decode/encode not canonical")
		}
		// The same batch narrowed to the set, as a client sends it, decodes
		// to what the full decode holds on every field of the set.
		if len(fields) > 0 && fields[len(fields)-1] < b.Fields {
			narrow, err := appendBatch(nil, b.Handle, b.Fields, b.Tuples, fields, b.SentNs)
			if err != nil {
				t.Fatalf("accepted batch does not narrow to fields %v: %v", fields, err)
			}
			nb, err := decodeBatch(recycled, narrow, set, b.Fields)
			if err != nil {
				t.Fatalf("batch narrowed to fields %v does not decode: %v", fields, err)
			}
			if msg := sameBatchOn(nb, b, fields); msg != "" {
				t.Fatalf("batch narrowed to fields %v: %s", fields, msg)
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
