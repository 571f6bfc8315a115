package wire

import (
	"bytes"
	"testing"
	"time"

	"gesturecep/internal/stream"
)

// TestCodecTracedBatch pins the traced-batch encoding: the trace flag and
// trailing timestamp round-trip, an untraced batch stays byte-identical to
// the pre-trace format, and the two encodings differ only by the flag bit
// plus the trailing 8 bytes — so a gateway relaying payload bytes verbatim
// cannot perturb either form.
func TestCodecTracedBatch(t *testing.T) {
	tuples := []stream.Tuple{
		{Ts: testTime(), Seq: 1, Fields: []float64{1.5, -2.25, 3}},
		{Ts: testTime().Add(33 * time.Millisecond), Seq: 2, Fields: []float64{0, -0.0, 9e99}},
	}
	const sentNs = int64(1395655200123456789)

	plain, err := AppendBatch(nil, 7, 3, tuples)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := appendBatch(nil, 7, 3, tuples, sentNs)
	if err != nil {
		t.Fatal(err)
	}

	if BatchTraced(plain) {
		t.Error("untraced payload reports the trace flag")
	}
	if !BatchTraced(traced) {
		t.Error("traced payload does not report the trace flag")
	}
	if len(traced) != len(plain)+8 {
		t.Fatalf("traced payload is %d bytes, want %d+8", len(traced), len(plain))
	}
	// Identical except the flag bit in the fields word and the trailer.
	if traced[6]&0x7f != plain[6] || !bytes.Equal(traced[:6], plain[:6]) ||
		!bytes.Equal(traced[7:len(plain)], plain[7:]) {
		t.Error("traced encoding differs from plain beyond flag bit and trailer")
	}

	// Geometry sees through the flag.
	for _, p := range [][]byte{plain, traced} {
		handle, count, fields, err := BatchGeometry(p)
		if err != nil || handle != 7 || count != 2 || fields != 3 {
			t.Fatalf("geometry = %d/%d/%d/%v, want 7/2/3/nil", handle, count, fields, err)
		}
	}

	b, err := DecodeBatch(traced)
	if err != nil {
		t.Fatal(err)
	}
	if b.SentNs != sentNs {
		t.Errorf("decoded SentNs = %d, want %d", b.SentNs, sentNs)
	}
	if b.Handle != 7 || b.Fields != 3 || len(b.Tuples) != 2 {
		t.Fatalf("decoded traced batch = %+v", b)
	}
	// The tuples themselves are unaffected by tracing.
	pb, err := DecodeBatch(plain)
	if err != nil {
		t.Fatal(err)
	}
	if pb.SentNs != 0 {
		t.Errorf("plain batch decoded SentNs = %d, want 0", pb.SentNs)
	}
	for i := range b.Tuples {
		if !b.Tuples[i].Ts.Equal(pb.Tuples[i].Ts) || b.Tuples[i].Seq != pb.Tuples[i].Seq {
			t.Errorf("tuple %d differs between traced and plain decode", i)
		}
	}
	// Canonical re-encode.
	re, err := appendBatch(nil, b.Handle, b.Fields, b.Tuples, b.SentNs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traced, re) {
		t.Error("traced encoding is not canonical under round trip")
	}

	// A traced payload missing its trailer must be rejected.
	if _, _, _, err := BatchGeometry(traced[:len(traced)-8]); err == nil {
		t.Error("BatchGeometry accepted a traced payload without its trailer")
	}
	if _, err := DecodeBatch(traced[:len(traced)-1]); err == nil {
		t.Error("DecodeBatch accepted a truncated traced payload")
	}
}
