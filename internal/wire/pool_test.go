package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gesturecep/internal/stream"
)

// poolTuples builds n kinect-width tuples for batch encoding.
func poolTuples(n, fields int) []stream.Tuple {
	out := make([]stream.Tuple, n)
	for i := range out {
		fs := make([]float64, fields)
		for j := range fs {
			fs[j] = float64(i*fields+j) * 0.25
		}
		out[i] = stream.Tuple{Ts: testTime().Add(time.Duration(i) * 33 * time.Millisecond), Seq: uint64(i), Fields: fs}
	}
	return out
}

// frameBytes encodes one frame (header + payload) for feeding a Reader.
func frameBytes(t *testing.T, ft FrameType, payload []byte) []byte {
	t.Helper()
	hdr := make([]byte, headerSize)
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = byte(ft)
	return append(hdr, payload...)
}

// loopReader replays the same byte sequence forever — an infinite frame
// stream for allocation measurements.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestReaderReleasesOversizedBuffer is the regression test for the
// grow-only Reader buffer: one maximum-size frame must not pin its
// high-water-mark allocation for the life of the connection. After the big
// frame, the next small frame must leave the Reader holding at most
// maxRetainedBuf of capacity.
func TestReaderReleasesOversizedBuffer(t *testing.T) {
	big := make([]byte, MaxFrame)
	small := []byte(`{"seq":1}`)
	var buf []byte
	buf = append(buf, frameBytes(t, FrameBatch, big)...) // geometry not validated by Next
	buf = append(buf, frameBytes(t, FramePing, small)...)
	buf = append(buf, frameBytes(t, FramePing, small)...)

	r := NewReader(&loopReader{data: buf})
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Payload) != MaxFrame {
		t.Fatalf("big frame payload %d, want %d", len(f.Payload), MaxFrame)
	}
	if cap(r.buf) < MaxFrame {
		t.Fatalf("reader buffer cap %d after big frame, want >= %d", cap(r.buf), MaxFrame)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if cap(r.buf) > maxRetainedBuf {
		t.Fatalf("reader retains %d bytes of capacity after a small frame, cap is %d", cap(r.buf), maxRetainedBuf)
	}
}

// TestWriterReleasesOversizedBuffer is the matching regression test for the
// Writer's scratch buffer.
func TestWriterReleasesOversizedBuffer(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(FrameBatch, make([]byte, MaxFrame)); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > maxRetainedBuf {
		t.Fatalf("writer retains %d bytes of scratch capacity, cap is %d", cap(w.buf), maxRetainedBuf)
	}
	if err := w.WriteFrame(FramePing, []byte(`{"seq":1}`)); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > maxRetainedBuf {
		t.Fatalf("writer retains %d bytes of scratch capacity after small frame, cap is %d", cap(w.buf), maxRetainedBuf)
	}
}

// TestFrameBufClasses pins the pool contract: GetFrameBuf returns a buffer
// of the requested length whose capacity covers its size class, and
// PutFrameBuf recycles it for the next same-class Get.
func TestFrameBufClasses(t *testing.T) {
	for _, n := range []int{1, 100, 4096, 5000, 64 << 10, 300 << 10, MaxFrame} {
		b := GetFrameBuf(n)
		if len(b) != n {
			t.Fatalf("GetFrameBuf(%d) has len %d", n, len(b))
		}
		PutFrameBuf(b)
	}
	// Undersized and nil slices are silently dropped, never panic.
	PutFrameBuf(nil)
	PutFrameBuf(make([]byte, 10))
}

// TestCodecAllocFree gates the codec hot path at zero allocations per
// frame in steady state: batch encode into a reused scratch, frame write
// through a retained Writer, frame read through a retained Reader. The
// pooling work of this layer cannot silently regress without tripping it.
func TestCodecAllocFree(t *testing.T) {
	const fields = 45
	tuples := poolTuples(DefaultBatchSize, fields)

	// Encode: AppendBatch into a reused scratch buffer.
	scratch, err := AppendBatch(nil, 7, fields, tuples)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), scratch...)
	scratch = scratch[:0]
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendBatch(scratch[:0], 7, fields, tuples)
		if err != nil {
			t.Fatal(err)
		}
		scratch = out[:0]
	}); n != 0 {
		t.Fatalf("AppendBatch allocates %.1f per batch, want 0", n)
	}

	// Write: WriteFrame with a warmed scratch buffer.
	w := NewWriter(io.Discard)
	if err := w.WriteFrame(FrameBatch, payload); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := w.WriteFrame(FrameBatch, payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("WriteFrame allocates %.1f per frame, want 0", n)
	}

	// Read: Next over an endless pre-encoded stream.
	r := NewReader(&loopReader{data: frameBytes(t, FrameBatch, payload)})
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Reader.Next allocates %.1f per frame, want 0", n)
	}
}

// TestCoalescerOrderAndDrain proves the coalescing flusher preserves frame
// order (the relay's flush contract depends on it) and releases every
// enqueued frame to the socket even when frames pile up faster than the
// flusher drains them.
func TestCoalescerOrderAndDrain(t *testing.T) {
	const frames = 500
	a, b := net.Pipe()
	defer b.Close()

	type rf struct {
		seq uint32
		err error
	}
	got := make(chan rf, frames)
	go func() {
		r := NewReader(b)
		for i := 0; i < frames; i++ {
			f, err := r.Next()
			if err != nil {
				got <- rf{err: err}
				return
			}
			if f.Type != FrameBatch || len(f.Payload) < 8 {
				got <- rf{err: fmt.Errorf("frame %d: type %s payload %d", i, f.Type, len(f.Payload))}
				return
			}
			got <- rf{seq: binary.BigEndian.Uint32(f.Payload[4:])}
		}
	}()

	cl := NewClient(a)
	cl.EnableCoalescing()
	for i := 0; i < frames; i++ {
		p := GetFrameBuf(16)
		binary.BigEndian.PutUint32(p[4:], uint32(i))
		if err := cl.co.Load().enqueue(FrameBatch, p, true, nil); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	for i := 0; i < frames; i++ {
		f := <-got
		if f.err != nil {
			t.Fatal(f.err)
		}
		if f.seq != uint32(i) {
			t.Fatalf("frame %d arrived with seq %d: coalescer reordered", i, f.seq)
		}
	}
	cl.Close()
}

// TestCoalescingAfterFailure pins the late-enable case: a connection that
// died before EnableCoalescing (the gateway enables it after Redial's ping)
// gets a coalescer whose flusher exits at once instead of outliving a Close
// that, finding the client already closed, never reaches it.
func TestCoalescingAfterFailure(t *testing.T) {
	a, b := net.Pipe()
	cl := NewClient(a)
	b.Close()
	<-cl.done // the read loop saw the close and ran fail

	cl.EnableCoalescing()
	co := cl.co.Load()
	select {
	case <-co.done:
	case <-time.After(5 * time.Second):
		t.Fatal("flusher of a coalescer enabled on a dead connection is still running")
	}
	if err := co.enqueue(FramePing, nil, false, nil); err == nil {
		t.Fatal("enqueue on a dead connection succeeded")
	}
	cl.Close()
}
