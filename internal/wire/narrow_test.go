package wire

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// Tests of read-set pushdown to the sender: the attach reply's read set,
// the client's narrowed batches, and the server's checks on them.

// captureHost is a host whose sessions advertise a fixed attach reply and
// keep every batch they are sent, decoded as the local host decodes it.
type captureHost struct {
	reply AttachReply

	mu       sync.Mutex
	narrowed []bool
	tuples   []stream.Tuple
}

func (h *captureHost) SessionCount() int      { return 0 }
func (h *captureHost) Metrics() serve.Metrics { return serve.Metrics{} }
func (h *captureHost) Attach(AttachRequest, *Push) (Session, AttachReply, error) {
	return captureSession{h}, h.reply, nil
}

type captureSession struct{ h *captureHost }

func (s captureSession) Batch(b RawBatch) error {
	var reads *stream.ReadSet
	narrowed := BatchNarrowed(b.Payload)
	if narrowed && s.h.reply.Reads != nil {
		reads = stream.NewReadSet(s.h.reply.Reads...)
	}
	batch, err := decodeBatch(new(BatchBuf), b.Payload, reads, s.h.reply.Fields)
	if err != nil {
		return err
	}
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	s.h.narrowed = append(s.h.narrowed, narrowed)
	s.h.tuples = append(s.h.tuples, batch.Tuples...)
	return nil
}

func (captureSession) Sync(bool) (SessionCounters, error) { return SessionCounters{}, nil }
func (captureSession) Close()                             {}

// serveHost serves h on a loopback listener and dials it.
func serveHost(t *testing.T, h Host) *Client {
	t.Helper()
	srv := NewHostServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestFeedTupleReusedSlice: FeedTuple reads the tuple during the call only,
// so a producer that fills one field slice for every tuple of a batch gets
// every tuple's own values to the server — full width and narrowed alike.
// The client sends full width when the attach reply has no read set, which
// is the reply of a server that predates them, or a set that does not fit
// the schema.
func TestFeedTupleReusedSlice(t *testing.T) {
	for _, row := range []struct {
		name     string
		reads    []int
		narrowed bool
	}{
		{"no read set", nil, false},
		{"read set", []int{1}, true},
		{"read set outside the schema", []int{5}, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := &captureHost{reply: AttachReply{Fields: 2, Plans: []string{}, Reads: row.reads}}
			rs, err := serveHost(t, h).Attach("reuse", AttachOptions{BatchSize: 3})
			if err != nil {
				t.Fatal(err)
			}
			if got := rs.Reads(); (got != nil) != row.narrowed {
				t.Fatalf("session sends fields %v; narrowed should be %t", got, row.narrowed)
			}
			fields := make([]float64, 2)
			for i := range 3 {
				fields[0], fields[1] = float64(i), float64(10*i)
				if err := rs.FeedTuple(stream.Tuple{Ts: testTime(), Seq: uint64(i), Fields: fields}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := rs.Flush(); err != nil {
				t.Fatal(err)
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			if len(h.narrowed) != 1 || h.narrowed[0] != row.narrowed || len(h.tuples) != 3 {
				t.Fatalf("server got %d tuples in batches narrowed %v; want 3 in one batch narrowed %t", len(h.tuples), h.narrowed, row.narrowed)
			}
			for i, tup := range h.tuples {
				if tup.Seq != uint64(i) || tup.Fields[1] != float64(10*i) || (!row.narrowed && tup.Fields[0] != float64(i)) {
					t.Errorf("tuple %d arrived as seq %d fields %v, fed seq %d fields [%d %d]", i, tup.Seq, tup.Fields, i, i, 10*i)
				}
			}
		})
	}
}

// wireFixture serves queries from a manager over a loopback listener.
func wireFixture(t *testing.T, queries ...string) (*serve.Manager, *Client) {
	t.Helper()
	reg := serve.NewRegistry()
	for _, q := range queries {
		if _, err := reg.Register(strings.Split(q, `"`)[1], q); err != nil {
			t.Fatal(err)
		}
	}
	mgr, err := serve.NewManager(serve.Config{Shards: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	srv := NewServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return mgr, cl
}

// TestServerTakesFullWidthFromOldClient: a server that advertised a read set
// still takes full-width batches — what a client that predates read sets
// sends — and detects on them what it detects on the narrowed ones.
func TestServerTakesFullWidthFromOldClient(t *testing.T) {
	_, cl := wireFixture(t, tickQuery)
	tuples := poolTuples(100, kinectFields)
	narrowed, err := cl.Attach("narrowed", AttachOptions{BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if narrowed.Reads() == nil || len(narrowed.Reads()) >= kinectFields {
		t.Fatalf("session sends fields %v; want a read set narrower than the schema", narrowed.Reads())
	}
	for _, tup := range tuples {
		if err := narrowed.FeedTuple(tup); err != nil {
			t.Fatal(err)
		}
	}
	old, err := cl.Attach("full-width", AttachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(tuples); off += 16 {
		payload, err := AppendBatch(nil, 0, kinectFields, tuples[off:min(off+16, len(tuples))])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ProxyBatch(old.Handle(), payload); err != nil {
			t.Fatal(err)
		}
	}
	var enc [2][]byte
	for i, rs := range []*RemoteSession{narrowed, old} {
		if _, err := rs.Detach(); err != nil {
			t.Fatal(err)
		}
		dets := rs.Detections()
		if len(dets) != len(tuples) {
			t.Fatalf("session %s: %d detections of a query that fires on each of %d tuples", rs.ID(), len(dets), len(tuples))
		}
		if enc[i], err = AppendDetectionFrames(nil, dets); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(enc[0], enc[1]) {
		t.Error("full-width batches detect other than narrowed ones")
	}
}

// refusedBatch attaches a session over a bare connection to addr, sends the
// batch payload makes of the attach reply, and returns the message of the
// error frame the server answers with; the server must then close the
// connection.
func refusedBatch(t *testing.T, addr string, payload func(AttachReply) []byte) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r, w := NewReader(c), NewWriter(c)
	if err := w.WriteJSON(FrameAttach, &AttachRequest{Version: ProtocolVersion, ID: "raw"}); err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil || f.Type != FrameAttachOK {
		t.Fatalf("attach answered %v, %v", f.Type, err)
	}
	var reply AttachReply
	if err := unmarshalStrict(f.Payload, &reply); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteFrame(FrameBatch, payload(reply)); err != nil {
		t.Fatal(err)
	}
	if f, err = r.Next(); err != nil || f.Type != FrameError {
		t.Fatalf("batch answered %v, %v; want an error frame", f.Type, err)
	}
	var er ErrorReply
	if err := unmarshalStrict(f.Payload, &er); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("the connection stayed open after a protocol violation")
	}
	return er.Msg
}

// TestNarrowedBatchOfAnotherWidth: a narrowed batch whose field count is not
// the session's advertised read set is a protocol violation — the server
// answers with the decode error, closes the connection and goes on serving
// — and so is one sent to a session that advertised no set.
func TestNarrowedBatchOfAnotherWidth(t *testing.T) {
	mgr, cl := wireFixture(t, tickQuery)
	var wider []int
	msg := refusedBatch(t, cl.c.RemoteAddr().String(), func(reply AttachReply) []byte {
		if reply.Reads == nil || slices.Contains(reply.Reads, 0) {
			t.Fatalf("session reads %v; the test needs a read set without field 0", reply.Reads)
		}
		wider = append([]int{0}, reply.Reads...)
		payload, err := appendBatch(nil, reply.Handle, kinectFields, poolTuples(4, kinectFields), wider, 0)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	})
	if want := fmt.Sprintf("narrowed batch carries %d fields per tuple, the session's read set %d", len(wider), len(wider)-1); !strings.Contains(msg, want) {
		t.Errorf("error %q, want %q", msg, want)
	}
	if _, err := mgr.CreateSession("after"); err != nil {
		t.Fatalf("server stopped serving: %v", err)
	}
	if n := mgr.Metrics().Enqueued; n != 0 {
		t.Errorf("%d tuples admitted from a batch of the wrong width", n)
	}

	h := &captureHost{reply: AttachReply{Fields: 2, Plans: []string{}}}
	msg = refusedBatch(t, serveHost(t, h).c.RemoteAddr().String(), func(reply AttachReply) []byte {
		tuples := []stream.Tuple{{Ts: testTime(), Fields: []float64{1, 2}}}
		payload, err := appendBatch(nil, reply.Handle, 2, tuples, []int{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return payload
	})
	if !strings.Contains(msg, "no read set") {
		t.Errorf("a narrowed batch to a session with no read set: error %q", msg)
	}
}
