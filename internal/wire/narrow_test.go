package wire

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
)

// Tests of read-set pushdown to the sender: the attach reply's read set,
// the client's batches that carry just those fields, and the server's
// checks on them.

// captureHost is a host whose sessions advertise a fixed attach reply and
// keep every batch they are sent, as bytes and decoded as the local host
// decodes it.
type captureHost struct {
	reply AttachReply

	mu       sync.Mutex
	live     int // sessions attached and not yet detached or closed
	payloads [][]byte
	tuples   []stream.Tuple
}

func (h *captureHost) SessionCount() int      { return 0 }
func (h *captureHost) Metrics() serve.Metrics { return serve.Metrics{} }
func (h *captureHost) Attach(AttachRequest, *Push) (Session, AttachReply, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.live++
	return captureSession{h}, h.reply, nil
}

type captureSession struct{ h *captureHost }

func (s captureSession) Batch(b RawBatch) error {
	var reads *stream.ReadSet
	if s.h.reply.Reads != nil {
		reads = stream.NewReadSet(s.h.reply.Reads...)
	}
	batch, err := decodeBatch(new(BatchBuf), b.Payload, reads, s.h.reply.Fields, false)
	if err != nil {
		return err
	}
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	s.h.payloads = append(s.h.payloads, slices.Clone(b.Payload))
	s.h.tuples = append(s.h.tuples, batch.Tuples...)
	return nil
}

func (s captureSession) Sync(detach bool) (SessionCounters, error) {
	if detach {
		s.Close()
	}
	return SessionCounters{}, nil
}

func (s captureSession) Close() {
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	s.h.live--
}

// appendReadBatch encodes tuples as a batch whose bodies carry only the
// fields in reads, in that order (nil: every field) — what the client of a
// session with that read set sends.
func appendReadBatch(dst []byte, handle uint32, tuples []stream.Tuple, reads []int, sentNs int64) []byte {
	start := len(dst)
	dst = AppendBatchHeader(dst, handle, 0, 0)
	for i := range tuples {
		dst = appendTupleBody(dst, &tuples[i], reads)
	}
	sent := len(reads)
	if reads == nil {
		sent = len(tuples[0].Fields)
	}
	return sealBatch(dst, start, len(tuples), sent, sentNs)
}

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
// every tuple's own values to the server — every field and a read set
// alike, and a session that reads every field sends the bytes of a
// full-width batch (AppendBatch). An attach reply whose read set is empty, reaches outside the
// schema or is out of order makes Attach fail, and the session it opened
// on the server is detached.
func TestFeedTupleReusedSlice(t *testing.T) {
	for _, row := range []struct {
		name    string
		reads   []int // the host's reply; nil: the server lists every field
		sent    []int // what the client sends; nil: every field
		refused bool
	}{
		{"every field", nil, nil, false},
		{"read set", []int{1}, []int{1}, false},
		{"no read set", []int{}, nil, true},
		{"read set outside the schema", []int{5}, nil, true},
		{"read set out of order", []int{1, 0}, nil, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			h := &captureHost{reply: AttachReply{Fields: 2, Plans: []string{}, Reads: row.reads}}
			rs, err := serveHost(t, h).Attach("reuse", AttachOptions{BatchSize: 3})
			if row.refused {
				h.mu.Lock()
				defer h.mu.Unlock()
				if err == nil || !strings.Contains(err.Error(), "read set") || h.live != 0 {
					t.Fatalf("attach = %v with %d server sessions left; want the read set refused and none left", err, h.live)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := rs.Reads(); !slices.Equal(got, row.sent) {
				t.Fatalf("session sends fields %v, want %v", got, row.sent)
			}
			fields := make([]float64, 2)
			var fed []stream.Tuple
			for i := range 3 {
				fields[0], fields[1] = float64(i), float64(10*i)
				tup := stream.Tuple{Ts: testTime(), Seq: uint64(i), Fields: fields}
				if err := rs.FeedTuple(tup); err != nil {
					t.Fatal(err)
				}
				fed = append(fed, tup.Clone())
			}
			if _, err := rs.Flush(); err != nil {
				t.Fatal(err)
			}
			h.mu.Lock()
			defer h.mu.Unlock()
			if len(h.tuples) != 3 || len(h.payloads) != 1 {
				t.Fatalf("server got %d tuples in %d batches, want 3 in one", len(h.tuples), len(h.payloads))
			}
			if want := appendReadBatch(nil, rs.Handle(), fed, row.sent, 0); !slices.Equal(h.payloads[0], want) {
				t.Errorf("batch bytes %x, want %x", h.payloads[0], want)
			}
			for i, tup := range h.tuples {
				if tup.Seq != uint64(i) || tup.Fields[1] != float64(10*i) || (row.sent == nil && tup.Fields[0] != float64(i)) {
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

// rawConn dials addr over a bare connection that fails a read or write
// stuck for ten seconds.
func rawConn(t *testing.T, addr string) (*Reader, *Writer) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return NewReader(c), NewWriter(c)
}

// violation reads the error frame a server answers a protocol violation
// with and returns its message; the server must then close the connection.
func violation(t *testing.T, r *Reader) string {
	t.Helper()
	f, err := r.Next()
	if err != nil || f.Type != FrameError {
		t.Fatalf("answered %v, %v; want an error frame", f.Type, err)
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

// refusedBatch attaches a session over a bare connection to addr, sends the
// batch payload makes of the attach reply, and returns the message of the
// error frame the server answers with.
func refusedBatch(t *testing.T, addr string, payload func(AttachReply) []byte) string {
	t.Helper()
	r, w := rawConn(t, addr)
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
	return violation(t, r)
}

// TestNarrowedBatchOfAnotherWidth: a batch whose field count is not that of
// its session's attach reply is a protocol violation — wider than the read
// set, or full width to a session that reads less — so the server answers
// with the error, closes the connection, admits nothing and goes on
// serving.
func TestNarrowedBatchOfAnotherWidth(t *testing.T) {
	for _, row := range []struct {
		name  string
		reads func(reply AttachReply) []int
	}{
		{"wider than the read set", func(reply AttachReply) []int { return append([]int{0}, reply.Reads...) }},
		{"full width", func(AttachReply) []int { return nil }},
	} {
		t.Run(row.name, func(t *testing.T) {
			mgr, cl := wireFixture(t, tickQuery)
			var sent []int
			msg := refusedBatch(t, cl.c.RemoteAddr().String(), func(reply AttachReply) []byte {
				if len(reply.Reads) == 0 || len(reply.Reads) >= kinectFields || slices.Contains(reply.Reads, 0) {
					t.Fatalf("session reads %v; the test needs a read set narrower than the schema, without field 0", reply.Reads)
				}
				sent = row.reads(reply)
				return appendReadBatch(nil, reply.Handle, poolTuples(4, kinectFields), sent, 0)
			})
			want := kinectFields
			if sent != nil {
				want = len(sent)
			}
			if want := fmt.Sprintf("batch carries %d fields per tuple, its session's attach reply lists", want); !strings.Contains(msg, want) {
				t.Errorf("error %q, want %q", msg, want)
			}
			if _, err := mgr.CreateSession("after"); err != nil {
				t.Fatalf("server stopped serving: %v", err)
			}
			if n := mgr.Metrics().Enqueued; n != 0 {
				t.Errorf("%d tuples admitted from a batch of the wrong width", n)
			}
		})
	}
}

// TestAttachRefusesVersion1: a client speaking the protocol before every
// batch carried its attach reply's fields is refused at attach.
func TestAttachRefusesVersion1(t *testing.T) {
	_, cl := wireFixture(t, tickQuery)
	r, w := rawConn(t, cl.c.RemoteAddr().String())
	if err := w.WriteJSON(FrameAttach, &AttachRequest{Version: 1, ID: "v1"}); err != nil {
		t.Fatal(err)
	}
	if msg, want := violation(t, r), "protocol version 1, server speaks 2"; !strings.Contains(msg, want) {
		t.Errorf("error %q, want %q", msg, want)
	}
}
