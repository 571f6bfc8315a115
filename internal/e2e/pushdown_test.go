package e2e

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"gesturecep/internal/kinect"
	"gesturecep/internal/serve"
	"gesturecep/internal/stream"
	"gesturecep/internal/wire"
)

// leftHandQuery reads the left hand, which no learned demo gesture does, so
// a session deploying it reads raw fields the demo plans' sessions skip.
const leftHandQuery = `SELECT "left_raise", lHand_y
MATCHING kinect_t(abs(lHand_x + 300) < 120 and abs(lHand_y - 0) < 120) ->
         kinect_t(lHand_y > 300 and lHand_x < -150)
within 1 seconds select first consume all;`

// twoHandSession is a child performing three two-hand swipes, which the
// left hand of leftHandQuery follows.
func twoHandSession(t *testing.T) []stream.Tuple {
	t.Helper()
	player, err := kinect.NewSimulator(kinect.ChildProfile(), kinect.DefaultNoise(), 7)
	if err != nil {
		t.Fatal(err)
	}
	two := kinect.ScriptItem{Gesture: kinect.GestureTwoHandSwipe, Opts: kinect.PerformOpts{PathJitter: 15}}
	idle := kinect.ScriptItem{Idle: 700 * time.Millisecond}
	sess, err := player.RunScript([]kinect.ScriptItem{idle, two, idle, two, idle, two, idle}, TestTime(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return kinect.ToTuples(sess.Frames)
}

// sentBatches is a client connection that tallies the batch frames written
// through it by shape.
type sentBatches struct {
	net.Conn

	mu      sync.Mutex
	pending []byte // bytes of a frame not yet written whole
	shapes  map[batchShape]int
}

// batchShape is what a batch frame carries per tuple: fewer fields than the
// kinect schema's (narrowed to a read set) or not, and the field count.
type batchShape struct {
	narrowed bool
	fields   int
}

func (c *sentBatches) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.pending = append(c.pending, p...)
	for len(c.pending) >= 5 {
		end := 5 + int(binary.BigEndian.Uint32(c.pending))
		if len(c.pending) < end {
			break
		}
		if payload := c.pending[5:end]; wire.FrameType(c.pending[4]) == wire.FrameBatch {
			_, _, fields, err := wire.BatchGeometry(payload)
			if err != nil {
				fields = -1
			}
			c.shapes[batchShape{fields < kinect.Schema().Len(), fields}]++
		}
		c.pending = c.pending[end:]
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// only fails t unless batches were sent, every one of them of shape want.
func (c *sentBatches) only(t *testing.T, want batchShape) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.shapes) != 1 || c.shapes[want] == 0 {
		t.Errorf("batch frames sent, by shape: %v; want only %+v", c.shapes, want)
	}
}

// dialCounting dials addr over a connection that tallies the batches sent.
func dialCounting(t *testing.T, addr string) (*wire.Client, *sentBatches) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sb := &sentBatches{Conn: c, shapes: make(map[batchShape]int)}
	return wire.NewClient(sb), sb
}

// TestPushdownDetectsWhatFullWidthDoes: a wire session decodes only the raw
// fields its plan and the transform read — the left hand and the five
// parameter joints — and, with every field outside that set NaN (ended
// loans poisoned, so the decoder NaN-fills what it skips), detects exactly
// what a bare engine replaying the full-width tuples does. The client is
// told that set at attach, and every batch it sends carries only those
// fields.
func TestPushdownDetectsWhatFullWidthDoes(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	reg := serve.NewRegistry()
	plan, err := reg.Register("left_raise", leftHandQuery)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := serve.NewManager(serve.Config{Shards: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := wire.NewServer(mgr)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, sent := dialCounting(t, ln.Addr().String())
	defer cl.Close()

	tuples := twoHandSession(t)
	rs, err := cl.Attach("left", wire.AttachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := rs.FeedTuple(tup); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	sess, ok := mgr.Session("left")
	if !ok {
		t.Fatal("served session not found")
	}
	schema := kinect.Schema()
	lHandX, ok1 := schema.Index("lHand_x")
	headX, ok2 := schema.Index("head_x")
	if !ok1 || !ok2 {
		t.Fatal("kinect schema lacks lHand_x or head_x")
	}
	reads := sess.Reads()
	if reads == nil || !slices.Contains(reads.Fields(), lHandX) || slices.Contains(reads.Fields(), headX) || len(reads.Fields()) != 18 {
		t.Fatalf("session reads %v; want the left hand and the five parameter joints, 18 fields", reads.Fields())
	}
	if !slices.Equal(rs.Reads(), reads.Fields()) {
		t.Fatalf("client sends fields %v, the session reads %v", rs.Reads(), reads.Fields())
	}
	sent.only(t, batchShape{narrowed: true, fields: 18})
	if _, err := rs.Detach(); err != nil {
		t.Fatal(err)
	}
	want := BareReplay(t, plan, tuples)
	if len(want) < 2 {
		t.Fatalf("a bare replay fires %d times; the comparison is vacuous", len(want))
	}
	if got := rs.Detections(); !bytes.Equal(EncodeDets(t, got), EncodeDets(t, want)) {
		t.Fatalf("served with pushdown: %d detections %+v\nbare full width: %d detections %+v", len(got), got, len(want), want)
	}
}

// TestRecordingSessionArchivesFullWidthDecodesReadSet: a recording
// session is sent every field — its archive keeps whole tuples — and so its
// archive holds every fed tuple bit for bit, all 45 fields, while the session
// decodes only the fields its plan and the transform read, and with every
// other field NaN (ended loans poisoned) detects what a bare engine
// replaying the full-width tuples does.
func TestRecordingSessionArchivesFullWidthDecodesReadSet(t *testing.T) {
	stream.PoisonEndedLoans(true)
	defer stream.PoisonEndedLoans(false)
	tuples := twoHandSession(t)
	h := Start(t, Options{Serve: serve.Config{Shards: 1}, Record: true, Plans: map[string]string{"left_raise": leftHandQuery}})
	cl, sent := dialCounting(t, h.Addr())
	defer cl.Close()
	rs, err := cl.Attach("recorded", wire.AttachOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range tuples {
		if err := rs.FeedTuple(tup); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rs.Flush(); err != nil {
		t.Fatal(err)
	}
	sess, ok := h.Manager(0).Session("recorded")
	if !ok {
		t.Fatal("served session not found")
	}
	if reads := sess.Reads(); reads == nil || len(reads.Fields()) != 18 {
		t.Fatalf("recording session reads %v, want its read set: the left hand and the five parameter joints", reads.Fields())
	}
	if rs.Reads() != nil {
		t.Fatalf("client of a recording session sends fields %v, want every field", rs.Reads())
	}
	sent.only(t, batchShape{narrowed: false, fields: kinect.Schema().Len()})
	if _, err := rs.Detach(); err != nil {
		t.Fatal(err)
	}
	plan, _ := h.Registry.Get("left_raise")
	if want := BareReplay(t, plan, tuples); len(want) < 2 || !bytes.Equal(EncodeDets(t, rs.Detections()), EncodeDets(t, want)) {
		t.Fatalf("recorded session detected %+v, a bare full-width replay %+v", rs.Detections(), want)
	}
	cl.Close()
	h.Stop()
	got, want := h.Recorded(0, "recorded"), WireTuples(t, tuples)
	if len(got) != len(want) {
		t.Fatalf("recorded %d tuples, fed %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Ts.Equal(want[i].Ts) || got[i].Seq != want[i].Seq || len(got[i].Fields) != len(want[i].Fields) {
			t.Fatalf("tuple %d: recorded %v/%d/%d fields, fed %v/%d/%d", i, got[i].Ts, got[i].Seq, len(got[i].Fields), want[i].Ts, want[i].Seq, len(want[i].Fields))
		}
		for k := range want[i].Fields {
			if math.Float64bits(got[i].Fields[k]) != math.Float64bits(want[i].Fields[k]) {
				t.Fatalf("tuple %d field %d: recorded %g, fed %g", i, k, got[i].Fields[k], want[i].Fields[k])
			}
		}
	}
}
