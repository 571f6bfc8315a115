package stream

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ts(ms int) time.Time {
	return time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC).Add(time.Duration(ms) * time.Millisecond)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema not rejected")
	}
	if _, err := NewSchema("a", "a"); err == nil {
		t.Error("duplicate field not rejected")
	}
	if _, err := NewSchema("a", ""); err == nil {
		t.Error("empty field name not rejected")
	}
}

func TestSchemaAccessors(t *testing.T) {
	s := testSchema(t)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if i, ok := s.Index("b"); !ok || i != 1 {
		t.Errorf("Index(b) = %d, %v", i, ok)
	}
	if _, ok := s.Index("zzz"); ok {
		t.Error("unknown field found")
	}
	if !s.Has("a") || s.Has("c") {
		t.Error("Has is wrong")
	}
	if s.FieldAt(0) != "a" {
		t.Error("FieldAt wrong")
	}
	ext, err := s.Extend("c")
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len() != 3 || !ext.Has("c") {
		t.Error("Extend failed")
	}
	if _, err := s.Extend("a"); err == nil {
		t.Error("Extend with duplicate not rejected")
	}
	if !s.Equal(testSchema(t)) {
		t.Error("equal schemas not Equal")
	}
	if s.Equal(ext) {
		t.Error("different schemas Equal")
	}
	if s.String() != "(a, b)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on invalid input")
		}
	}()
	MustSchema()
}

func TestTupleGet(t *testing.T) {
	s := testSchema(t)
	tp := NewTuple(ts(0), 1, []float64{1.5, 2.5})
	if v, err := tp.Get(s, "b"); err != nil || v != 2.5 {
		t.Errorf("Get(b) = %v, %v", v, err)
	}
	if _, err := tp.Get(s, "zzz"); err == nil {
		t.Error("unknown attribute not rejected")
	}
	short := Tuple{Ts: ts(0), Fields: []float64{1}}
	if _, err := short.Get(s, "b"); err == nil {
		t.Error("short tuple not rejected")
	}
	if got := tp.MustGet(s, "a"); got != 1.5 {
		t.Errorf("MustGet = %v", got)
	}
}

func TestTupleCloneIsDeep(t *testing.T) {
	tp := NewTuple(ts(0), 1, []float64{1, 2})
	cl := tp.Clone()
	cl.Fields[0] = 99
	if tp.Fields[0] != 1 {
		t.Error("Clone shares the fields slice")
	}
}

func TestNewTupleCopies(t *testing.T) {
	src := []float64{1, 2}
	tp := NewTuple(ts(0), 1, src)
	src[0] = 99
	if tp.Fields[0] != 1 {
		t.Error("NewTuple did not copy fields")
	}
}

func TestStreamPublishSubscribe(t *testing.T) {
	s, err := New("kinect", testSchema(t))
	if err != nil {
		t.Fatal(err)
	}
	var got []Tuple
	cancel := s.Subscribe(func(tp Tuple) { got = append(got, tp) })

	if err := s.Publish(NewTuple(ts(0), 0, []float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d tuples", len(got))
	}
	cancel()
	cancel() // double-cancel is harmless
	if err := s.Publish(NewTuple(ts(33), 1, []float64{3, 4})); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Error("cancelled subscriber still received tuples")
	}
	if s.Published() != 2 {
		t.Errorf("Published = %d", s.Published())
	}
}

// TestReadSetsAndPublishDerived: a stream's read set is the union of what
// its subscribers declared, every field once one declared nothing, and it
// narrows again when they leave; PublishDerived builds each tuple for the
// very subscribers it then delivers to.
func TestReadSetsAndPublishDerived(t *testing.T) {
	s, err := New("v", MustSchema("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	var built []*ReadSet
	build := func(in Tuple, reads *ReadSet) (Tuple, bool) {
		built = append(built, reads)
		return in, in.Seq != 99
	}
	publish := func(seq uint64) (bool, error) {
		_, ok, err := s.PublishDerived(Tuple{Seq: seq, Fields: []float64{1, 2, 3}}, build)
		return ok, err
	}
	same := func(r *ReadSet, want ...int) bool {
		return r != nil && slices.Equal(r.Fields(), want)
	}
	if _, err := publish(0); err != nil || !same(built[0]) || !same(s.Reads()) {
		t.Fatalf("no subscriber: built for %v (err %v), stream reads %v; want the empty set", built[0].Fields(), err, s.Reads().Fields())
	}
	got := 0
	cancelC := s.SubscribeReads(NewReadSet(2), func(Tuple) { got++ })
	cancelAC := s.SubscribeReads(NewReadSet(2, 0, 2), func(Tuple) { got++ })
	if !same(s.Reads(), 0, 2) {
		t.Fatalf("reads %v, want [0 2]", s.Reads().Fields())
	}
	cancelAll := s.Subscribe(func(Tuple) { got++ })
	if s.Reads() != nil {
		t.Fatalf("reads %v with a subscriber that declared nothing, want every field", s.Reads().Fields())
	}
	if ok, err := publish(1); !ok || err != nil || built[1] != nil || got != 3 {
		t.Fatalf("published %t (err %v) built for %v to %d subscribers, want every field to 3", ok, err, built[1].Fields(), got)
	}
	cancelAll()
	cancelAC()
	if !same(s.Reads(), 2) {
		t.Fatalf("reads %v after two left, want [2]", s.Reads().Fields())
	}
	if ok, _ := publish(99); ok || got != 3 || s.Published() != 2 {
		t.Fatalf("dropped tuple: published %t, delivered to %d, count %d", ok, got-3, s.Published())
	}
	if _, _, err := s.PublishDerived(Tuple{}, func(in Tuple, _ *ReadSet) (Tuple, bool) { return in, true }); err == nil {
		t.Error("derived tuple of the wrong arity published")
	}
	cancelC()
}

func TestStreamSchemaMismatch(t *testing.T) {
	s, _ := New("kinect", testSchema(t))
	if err := s.Publish(NewTuple(ts(0), 0, []float64{1})); err == nil {
		t.Error("short tuple accepted")
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := New("", testSchema(t)); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("x", nil); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestSubscriberOrderPreserved(t *testing.T) {
	s, _ := New("kinect", testSchema(t))
	var order []int
	s.Subscribe(func(Tuple) { order = append(order, 1) })
	s.Subscribe(func(Tuple) { order = append(order, 2) })
	s.Subscribe(func(Tuple) { order = append(order, 3) })
	_ = s.Publish(NewTuple(ts(0), 0, []float64{0, 0}))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("delivery order = %v", order)
	}
}

func TestUnsubscribeDuringDelivery(t *testing.T) {
	s, _ := New("kinect", testSchema(t))
	var cancel2 func()
	calls2 := 0
	s.Subscribe(func(Tuple) { cancel2() }) // first subscriber removes the second
	cancel2 = s.Subscribe(func(Tuple) { calls2++ })
	_ = s.Publish(NewTuple(ts(0), 0, []float64{0, 0}))
	// The snapshot semantics deliver this tuple to both, but the next one
	// only to the first.
	_ = s.Publish(NewTuple(ts(33), 1, []float64{0, 0}))
	if calls2 != 1 {
		t.Errorf("second subscriber called %d times, want 1", calls2)
	}
}

func TestDeriveView(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	outSchema := MustSchema("sum")
	view, err := Derive(src, "kinect_t", outSchema, func(tp Tuple) (Tuple, bool) {
		if tp.Fields[0] < 0 {
			return Tuple{}, false // drop negatives
		}
		return Tuple{Ts: tp.Ts, Seq: tp.Seq, Fields: []float64{tp.Fields[0] + tp.Fields[1]}}, true
	})
	if err != nil {
		t.Fatal(err)
	}
	var c Collector
	c.Attach(view)

	_ = src.Publish(NewTuple(ts(0), 0, []float64{1, 2}))
	_ = src.Publish(NewTuple(ts(33), 1, []float64{-1, 2}))
	_ = src.Publish(NewTuple(ts(66), 2, []float64{3, 4}))

	got := c.Tuples()
	if len(got) != 2 {
		t.Fatalf("view produced %d tuples, want 2", len(got))
	}
	if got[0].Fields[0] != 3 || got[1].Fields[0] != 7 {
		t.Errorf("view values = %v, %v", got[0].Fields, got[1].Fields)
	}
}

func TestDeriveCancelable(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	view, cancel, err := DeriveCancelable(src, "v", src.Schema(), func(tp Tuple) (Tuple, bool) { return tp, true })
	if err != nil {
		t.Fatal(err)
	}
	var c Collector
	c.Attach(view)
	_ = src.Publish(NewTuple(ts(0), 0, []float64{1, 2}))
	cancel()
	_ = src.Publish(NewTuple(ts(33), 1, []float64{1, 2}))
	if c.Len() != 1 {
		t.Errorf("detached view still receives tuples: %d", c.Len())
	}
}

func TestDeriveValidation(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	if _, err := Derive(nil, "v", src.Schema(), func(tp Tuple) (Tuple, bool) { return tp, true }); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Derive(src, "v", src.Schema(), nil); err == nil {
		t.Error("nil transform accepted")
	}
}

func TestFilterMap(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	f, err := Filter(src, "pos", func(tp Tuple) bool { return tp.Fields[0] > 0 })
	if err != nil {
		t.Fatal(err)
	}
	m, err := Map(f, "scaled", src.Schema(), func(tp Tuple) Tuple {
		out := tp.Clone()
		out.Fields[0] *= 10
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	var c Collector
	c.Attach(m)
	_ = src.Publish(NewTuple(ts(0), 0, []float64{-5, 0}))
	_ = src.Publish(NewTuple(ts(33), 1, []float64{5, 0}))
	got := c.Tuples()
	if len(got) != 1 || got[0].Fields[0] != 50 {
		t.Errorf("filter+map result = %+v", got)
	}
}

func TestReplay(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	var c Collector
	c.Attach(src)
	tuples := []Tuple{
		NewTuple(ts(0), 0, []float64{1, 2}),
		NewTuple(ts(33), 1, []float64{3, 4}),
	}
	if err := Replay(src, tuples); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("replayed %d tuples", c.Len())
	}
	bad := []Tuple{NewTuple(ts(0), 0, []float64{1})}
	if err := Replay(src, bad); err == nil {
		t.Error("invalid tuple replay accepted")
	}
}

func TestReplayRealtime(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	var c Collector
	c.Attach(src)
	tuples := []Tuple{
		NewTuple(ts(0), 0, []float64{1, 2}),
		NewTuple(ts(10), 1, []float64{3, 4}),
		NewTuple(ts(20), 2, []float64{5, 6}),
	}
	start := time.Now()
	if err := ReplayRealtime(context.Background(), src, tuples, 1.0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("realtime replay too fast: %v", elapsed)
	}
	if c.Len() != 3 {
		t.Errorf("replayed %d tuples", c.Len())
	}
	if err := ReplayRealtime(context.Background(), src, tuples, 0); err == nil {
		t.Error("zero speedup accepted")
	}
	// Cancellation stops playback.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ReplayRealtime(ctx, src, tuples, 1.0)
	if err == nil {
		t.Error("cancelled replay returned nil")
	}
}

func TestPump(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	var c Collector
	c.Attach(src)
	ch := make(chan Tuple, 2)
	ch <- NewTuple(ts(0), 0, []float64{1, 2})
	ch <- NewTuple(ts(33), 1, []float64{3, 4})
	close(ch)
	if err := Pump(context.Background(), src, ch); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Errorf("pumped %d tuples", c.Len())
	}
}

func TestCollectorReset(t *testing.T) {
	src, _ := New("kinect", testSchema(t))
	var c Collector
	c.Attach(src)
	_ = src.Publish(NewTuple(ts(0), 0, []float64{1, 2}))
	c.Reset()
	if c.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

// TestCollectorKeepsACopy: a published tuple is lent for the duration of
// Publish, so the collector must not hold on to the publisher's array.
func TestCollectorKeepsACopy(t *testing.T) {
	s, _ := New("kinect", testSchema(t))
	var c Collector
	c.Attach(s)
	lent := []float64{1, 2}
	for i := 0; i < 3; i++ {
		lent[0] = float64(i)
		if err := s.Publish(Tuple{Ts: ts(33 * i), Seq: uint64(i), Fields: lent}); err != nil {
			t.Fatal(err)
		}
	}
	lent[0] = -1
	for i, got := range c.Tuples() {
		if got.Seq != uint64(i) || got.Fields[0] != float64(i) || got.Fields[1] != 2 {
			t.Errorf("collected tuple %d = %+v, want the values at publish time", i, got)
		}
	}
}

// TestEndLoanPoisonsOnlyWhenAsked covers the test hook lenders call when a
// loan ends.
func TestEndLoanPoisonsOnlyWhenAsked(t *testing.T) {
	fields := []float64{1, 2, 3}
	EndLoan(fields)
	if fields[0] != 1 || fields[2] != 3 {
		t.Fatalf("EndLoan changed %v with poisoning off", fields)
	}
	PoisonEndedLoans(true)
	defer PoisonEndedLoans(false)
	EndLoan(fields)
	for i, f := range fields {
		if !math.IsNaN(f) {
			t.Errorf("field %d = %g after a poisoned EndLoan, want NaN", i, f)
		}
	}
}
