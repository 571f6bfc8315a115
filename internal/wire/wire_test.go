package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gesturecep/internal/anduin"
	"gesturecep/internal/stream"
)

// Unit tests of the codec and the client's error plumbing, which need the
// package internals. The end-to-end protocol suites (differential,
// 64-session divergence, drop reporting, protocol errors) live in
// e2e_test.go on top of the shared internal/e2e harness.

func testTime() time.Time { return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC) }

// TestCodecRoundTrip pins the canonical encodings: batches and detection
// lists survive encode → decode exactly.
func TestCodecRoundTrip(t *testing.T) {
	tuples := []stream.Tuple{
		{Ts: testTime(), Seq: 1, Fields: []float64{1.5, -2.25, 3}},
		{Ts: testTime().Add(33 * time.Millisecond), Seq: 2, Fields: []float64{0, -0.0, 9e99}},
	}
	payload, err := AppendBatch(nil, 7, 3, tuples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.Handle != 7 || b.Fields != 3 || len(b.Tuples) != 2 {
		t.Fatalf("decoded batch = %+v", b)
	}
	re, err := AppendBatch(nil, b.Handle, b.Fields, b.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, re) {
		t.Error("batch encoding is not canonical under round trip")
	}

	dets := []anduin.Detection{
		{Gesture: "swipe_right", QueryID: 3, Start: testTime(), End: testTime().Add(time.Second), Measures: []float64{1, 2}},
		{Gesture: "", QueryID: 0, Start: testTime(), End: testTime()},
	}
	dp, err := AppendDetections(nil, 9, 11, dets)
	if err != nil {
		t.Fatal(err)
	}
	handle, dropped, got, err := DecodeDetections(dp)
	if err != nil {
		t.Fatal(err)
	}
	if handle != 9 || dropped != 11 || len(got) != 2 {
		t.Fatalf("decoded detections = %d/%d/%d", handle, dropped, len(got))
	}
	rd, err := AppendDetections(nil, handle, dropped, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dp, rd) {
		t.Error("detection encoding is not canonical under round trip")
	}
}

// TestAppendDetectionFrames pins the canonical bytes of a detection list:
// one AppendDetections payload up to MaxDetections, consecutive payloads of
// at most MaxDetections beyond it.
func TestAppendDetectionFrames(t *testing.T) {
	dets := make([]anduin.Detection, MaxDetections+1)
	for i := range dets {
		at := testTime().Add(time.Duration(i) * time.Millisecond)
		dets[i] = anduin.Detection{Gesture: "push", QueryID: i % 3, Start: at, End: at.Add(time.Second)}
	}
	frame := func(dets []anduin.Detection) []byte {
		p, err := AppendDetections(nil, 0, 0, dets)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, n := range []int{0, 1, MaxDetections, MaxDetections + 1} {
		want := frame(dets[:min(n, MaxDetections)])
		if n > MaxDetections {
			want = append(want, frame(dets[MaxDetections:n])...)
		}
		got, err := AppendDetectionFrames(nil, dets[:n])
		if err != nil {
			t.Fatalf("%d detections: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d detections: %d bytes, want %d", n, len(got), len(want))
		}
	}
}

// TestBatchGeometry checks the proxy-side structural validator agrees with
// the decoder: a payload passing BatchGeometry decodes, a payload failing
// it is rejected by DecodeBatch too.
func TestBatchGeometry(t *testing.T) {
	tuples := []stream.Tuple{
		{Ts: testTime(), Seq: 1, Fields: []float64{1, 2, 3}},
		{Ts: testTime().Add(time.Millisecond), Seq: 2, Fields: []float64{4, 5, 6}},
	}
	payload, err := AppendBatch(nil, 99, 3, tuples)
	if err != nil {
		t.Fatal(err)
	}
	handle, count, fields, err := BatchGeometry(payload)
	if err != nil || handle != 99 || count != 2 || fields != 3 {
		t.Fatalf("geometry = %d/%d/%d/%v, want 99/2/3/nil", handle, count, fields, err)
	}
	for _, bad := range [][]byte{
		nil,
		payload[:7],              // shorter than the header
		payload[:len(payload)-1], // truncated body
		append(payload, 0),       // trailing byte
		func() []byte { // count lies
			p := append([]byte(nil), payload...)
			p[5] = 3
			return p
		}(),
	} {
		if _, _, _, err := BatchGeometry(bad); err == nil {
			t.Errorf("BatchGeometry accepted malformed payload of %d bytes", len(bad))
		}
		if _, err := DecodeBatch(bad); err == nil {
			t.Errorf("DecodeBatch accepted malformed payload of %d bytes", len(bad))
		}
	}
}

// TestClientSurfacesWriteError kills the peer under a feeding client and
// requires the root-cause socket error in the returned chain — not the
// generic "connection closed" (nor the secondary "use of closed network
// connection" the read loop produces an instant later).
func TestClientSurfacesWriteError(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	cl := NewClient(clientEnd)
	defer cl.Close()
	rs := &RemoteSession{cl: cl, handle: 1, fields: 2, batchSize: 1}

	serverEnd.Close() // the socket dies mid-batch

	var err error
	deadline := time.Now().Add(2 * time.Second)
	for err == nil && time.Now().Before(deadline) {
		err = rs.FeedTuple(stream.Tuple{Ts: testTime(), Fields: []float64{1, 2}})
	}
	if err == nil {
		t.Fatal("feeding a dead socket never failed")
	}
	if !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("error chain lacks the underlying socket error: %v", err)
	}
	if cerr := cl.Err(); !errors.Is(cerr, io.ErrClosedPipe) {
		t.Fatalf("Client.Err() = %v, want the root-cause socket error", cerr)
	}
	// A deliberate Close on a healthy client stays a plain close: no
	// misleading root cause recorded.
	c2End, s2End := net.Pipe()
	go func() { _, _ = io.Copy(io.Discard, s2End) }()
	cl2 := NewClient(c2End)
	if err := cl2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl2.Err(); err != nil {
		t.Fatalf("deliberate Close recorded an error: %v", err)
	}
}

// faultConn fails on cue: Read returns the error sent on readErr and Write
// the one sent on writeErr, each blocking until one arrives; Close does
// nothing, so whatever was sent is what the client sees.
type faultConn struct {
	net.Conn
	readErr, writeErr chan error
}

func (c *faultConn) Read([]byte) (int, error)  { return 0, <-c.readErr }
func (c *faultConn) Write([]byte) (int, error) { return 0, <-c.writeErr }
func (c *faultConn) Close() error              { return nil }

// TestClientKeepsBothCauses forces each order of a connection's two
// failures, its read loop's and a feeding write's: the first error of each
// side is kept, and Err joins them earlier first. A write that follows a
// failed read is still tried, so its own cause is kept and the call that
// made it returns both.
func TestClientKeepsBothCauses(t *testing.T) {
	errRead, errWrite := errors.New("read side"), errors.New("write side")
	for _, readFirst := range []bool{true, false} {
		name := "write first"
		if readFirst {
			name = "read first"
		}
		t.Run(name, func(t *testing.T) {
			pipe, peer := net.Pipe()
			defer peer.Close()
			fc := &faultConn{Conn: pipe, readErr: make(chan error, 1), writeErr: make(chan error, 1)}
			cl := NewClient(fc)
			defer cl.Close()
			rs := &RemoteSession{cl: cl, handle: 1, fields: 2, batchSize: 1}
			feed := func() error { return rs.FeedTuple(stream.Tuple{Ts: testTime(), Fields: []float64{1, 2}}) }
			var err error
			want := errors.Join(errWrite, errRead)
			if readFirst {
				want = errors.Join(errRead, errWrite)
				fc.readErr <- errRead
				<-cl.done
				fc.writeErr <- errWrite
				if err = feed(); !errors.Is(err, errRead) || !errors.Is(err, errWrite) {
					t.Fatalf("feeding after the read side failed: %v, want both causes", err)
				}
			} else {
				fc.writeErr <- errWrite
				if err = feed(); !errors.Is(err, errWrite) {
					t.Fatalf("feeding into a failing write: %v, want its cause", err)
				}
				fc.readErr <- errRead
				<-cl.done
			}
			if got := cl.Err(); got == nil || got.Error() != want.Error() {
				t.Fatalf("Client.Err() = %v, want %v", got, want)
			}
		})
	}
}
