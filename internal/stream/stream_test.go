package stream

import (
	"fmt"
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
// narrows again when they leave; PublishDerivedBatch builds each batch for
// the very subscribers it then delivers to, and delivers nothing that is not
// one tuple of the schema's arity per tuple of its input.
func TestReadSetsAndPublishDerived(t *testing.T) {
	s, err := New("v", MustSchema("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	var built []*ReadSet
	build := func(in []Tuple, reads *ReadSet) []Tuple {
		built = append(built, reads)
		if in[0].Seq == 99 {
			return nil
		}
		return in
	}
	publish := func(seq uint64) error {
		return s.PublishDerivedBatch([]Tuple{{Seq: seq, Fields: []float64{1, 2, 3}}}, build)
	}
	same := func(r *ReadSet, want ...int) bool {
		return r != nil && slices.Equal(r.Fields(), want)
	}
	if err := publish(0); err != nil || !same(built[0]) || !same(s.Reads()) {
		t.Fatalf("no subscriber: built for %v (err %v), stream reads %v; want the empty set", built[0].Fields(), err, s.Reads().Fields())
	}
	got := 0
	cancelC := s.SubscribeBatch(NewReadSet(2), func(ts []Tuple) { got += len(ts) })
	cancelAC := s.SubscribeBatch(NewReadSet(2, 0, 2), func(ts []Tuple) { got += len(ts) })
	if !same(s.Reads(), 0, 2) {
		t.Fatalf("reads %v, want [0 2]", s.Reads().Fields())
	}
	cancelAll := s.Subscribe(func(Tuple) { got++ })
	if s.Reads() != nil {
		t.Fatalf("reads %v with a subscriber that declared nothing, want every field", s.Reads().Fields())
	}
	if err := publish(1); err != nil || built[1] != nil || got != 3 {
		t.Fatalf("published (err %v) built for %v to %d subscribers, want every field to 3", err, built[1].Fields(), got)
	}
	cancelAll()
	cancelAC()
	if !same(s.Reads(), 2) {
		t.Fatalf("reads %v after two left, want [2]", s.Reads().Fields())
	}
	if err := publish(99); err == nil || got != 3 || s.Published() != 2 {
		t.Fatalf("short derived batch: err %v, delivered to %d, count %d", err, got-3, s.Published())
	}
	if err := s.PublishDerivedBatch([]Tuple{{}}, func(in []Tuple, _ *ReadSet) []Tuple { return in }); err == nil {
		t.Error("derived tuple of the wrong arity published")
	}
	cancelC()
}

// TestPublishBatch: a batch subscriber gets the batch whole, a plain one
// tuple by tuple, in subscription order; Publish hands a batch subscriber a
// batch of one; a batch with a tuple of the wrong arity delivers nothing.
func TestPublishBatch(t *testing.T) {
	s, _ := New("kinect", testSchema(t))
	var events []string
	s.SubscribeBatch(nil, func(ts []Tuple) { events = append(events, fmt.Sprintf("batch of %d", len(ts))) })
	s.Subscribe(func(tu Tuple) { events = append(events, fmt.Sprintf("tuple %d", tu.Seq)) })
	batch := []Tuple{NewTuple(ts(0), 1, []float64{0, 0}), NewTuple(ts(33), 2, []float64{0, 0})}
	if err := s.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(NewTuple(ts(66), 3, []float64{0, 0})); err != nil {
		t.Fatal(err)
	}
	want := []string{"batch of 2", "tuple 1", "tuple 2", "batch of 1", "tuple 3"}
	if !slices.Equal(events, want) {
		t.Fatalf("deliveries %v, want %v", events, want)
	}
	if err := s.PublishBatch(append(batch, NewTuple(ts(99), 4, []float64{0}))); err == nil || len(events) != len(want) || s.Published() != 3 {
		t.Fatalf("short tuple in a batch: err %v, %d deliveries, %d published", err, len(events)-len(want), s.Published())
	}
}

// TestFeedFollowsTheDerivedReadSet: the subscription a derived stream is fed
// through declares need of the derived stream's union, re-derived as its
// subscribers come and go.
func TestFeedFollowsTheDerivedReadSet(t *testing.T) {
	src, _ := New("raw", MustSchema("a", "b", "c", "d"))
	d, _ := New("view", src.Schema())
	// The derived field f reads source fields f and 3.
	need := func(r *ReadSet) *ReadSet {
		if r == nil {
			return nil
		}
		return NewReadSet(append(slices.Clone(r.Fields()), 3)...)
	}
	err := d.Feed(src, need, func(in []Tuple) {
		if err := d.PublishDerivedBatch(in, func(in []Tuple, _ *ReadSet) []Tuple { return in }); err != nil {
			t.Error(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Feed(src, need, func([]Tuple) {}); err == nil {
		t.Error("a stream was fed from two sources")
	}
	reads := func() []int { return src.Reads().Fields() }
	if !slices.Equal(reads(), []int{3}) {
		t.Fatalf("no derived subscriber: source reads %v, want [3]", reads())
	}
	got := 0
	cancelB := d.SubscribeBatch(NewReadSet(1), func(ts []Tuple) { got += len(ts) })
	if !slices.Equal(reads(), []int{1, 3}) {
		t.Fatalf("derived subscriber reads [1]: source reads %v, want [1 3]", reads())
	}
	cancelAll := d.Subscribe(func(Tuple) { got++ })
	if src.Reads() != nil {
		t.Fatalf("derived subscriber reads every field: source reads %v, want every field", reads())
	}
	if err := src.PublishBatch([]Tuple{NewTuple(ts(0), 0, []float64{1, 2, 3, 4})}); err != nil || got != 2 {
		t.Fatalf("published (err %v) to %d derived subscribers, want 2", err, got)
	}
	cancelAll()
	cancelB()
	if !slices.Equal(reads(), []int{3}) {
		t.Fatalf("derived subscribers gone: source reads %v, want [3]", reads())
	}
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

// TestReadSetCovers: r covers o when r holds every field of o; nil is
// every field.
func TestReadSetCovers(t *testing.T) {
	abc, ac, ad := NewReadSet(0, 1, 2), NewReadSet(2, 0), NewReadSet(0, 3)
	for _, c := range []struct {
		r, o *ReadSet
		want bool
	}{
		{abc, ac, true}, {ac, abc, false}, {abc, ad, false}, {ac, ac, true},
		{abc, noFields, true}, {noFields, ac, false},
		{nil, abc, true}, {abc, nil, false}, {nil, nil, true},
	} {
		if got := c.r.Covers(c.o); got != c.want {
			t.Errorf("%v covers %v = %v, want %v", c.r.Fields(), c.o.Fields(), got, c.want)
		}
	}
}
