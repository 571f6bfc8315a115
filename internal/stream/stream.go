package stream

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Stream is a named, schema-typed sequence of tuples with synchronous
// publish/subscribe fan-out. Publish delivers the tuple to every subscriber
// in subscription order before returning, giving deterministic per-tuple
// evaluation like AnduIN's operator graph.
//
// Subscribing is safe for concurrent use with publishing, but a single
// stream's tuples must be published from one goroutine at a time: to
// preserve ordering, and because Publish delivers a single tuple as a batch
// of one out of an array of the stream's own.
type Stream struct {
	name   string
	schema *Schema

	mu    sync.Mutex
	subs  map[int]subscriber
	order []int
	next  int
	// feed is the subscription that publishes this stream's tuples, when
	// this is a derived stream attached with Feed; its read set follows
	// this stream's union.
	feed *feed

	// fanout holds an immutable snapshot of the subscribers, rebuilt
	// copy-on-write whenever the subscriber set changes. Publish loads it
	// atomically, so the per-tuple hot path does not allocate and does not
	// take the mutex.
	fanout atomic.Pointer[fanout]

	published atomic.Uint64

	// one holds the tuple Publish delivers, as a batch of one, so a single
	// publish allocates nothing. Only the publishing goroutine touches it.
	one [1]Tuple
}

// New creates a stream with the given name and schema.
func New(name string, schema *Schema) (*Stream, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: empty stream name")
	}
	if schema == nil {
		return nil, fmt.Errorf("stream: nil schema for stream %q", name)
	}
	return &Stream{name: name, schema: schema, subs: make(map[int]subscriber)}, nil
}

// subscriber takes tuples in whole batches and reads the fields in reads.
type subscriber struct {
	batch func([]Tuple)
	reads *ReadSet
}

// fanout is one delivery snapshot: the subscribers in subscription order
// and the union of the fields they read.
type fanout struct {
	subs  []subscriber
	reads *ReadSet
}

// feed links a derived stream to the subscription on src that publishes it.
type feed struct {
	src  *Stream
	id   int
	need func(*ReadSet) *ReadSet
}

// ReadSet is a set of field indices: what a subscriber reads of each tuple,
// or the union over a stream's subscribers. The nil *ReadSet is the set of
// every field. A ReadSet is immutable, so one that is still the same
// pointer still holds the same fields.
type ReadSet struct {
	fields []int
}

// noFields is the empty read set: what a stream nobody subscribes to reads.
var noFields = &ReadSet{}

// NewReadSet returns the set of the given field indices.
func NewReadSet(fields ...int) *ReadSet {
	fs := slices.Clone(fields)
	slices.Sort(fs)
	return &ReadSet{fields: slices.Compact(fs)}
}

// Covers reports whether r holds every field of o.
func (r *ReadSet) Covers(o *ReadSet) bool {
	if r == nil || r == o {
		return true
	}
	if o == nil {
		return false
	}
	i := 0
	for _, f := range o.fields {
		for i < len(r.fields) && r.fields[i] < f {
			i++
		}
		if i == len(r.fields) || r.fields[i] != f {
			return false
		}
	}
	return true
}

// Fields returns the set's indices in ascending order, or nil for the set
// of every field. The slice is the set's own: do not modify it.
func (r *ReadSet) Fields() []int {
	if r == nil {
		return nil
	}
	return r.fields
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Schema returns the stream schema.
func (s *Stream) Schema() *Schema { return s.schema }

// Published returns the number of tuples published so far.
func (s *Stream) Published() uint64 { return s.published.Load() }

// Subscribe registers fn to receive every future tuple, one after another,
// reading every field. The returned function removes the subscription;
// calling it more than once is harmless.
func (s *Stream) Subscribe(fn func(Tuple)) (cancel func()) {
	return s.SubscribeBatch(nil, func(ts []Tuple) {
		for i := range ts {
			fn(ts[i])
		}
	})
}

// addLocked registers sub and returns its id. Callers must hold s.mu.
func (s *Stream) addLocked(sub subscriber) int {
	id := s.next
	s.next++
	s.subs[id] = sub
	s.order = append(s.order, id)
	s.rebuildHandlersLocked()
	return id
}

// SubscribeBatch registers fn to receive every future tuple in batches:
// each PublishBatch hands it the whole batch in one call, and Publish a
// batch of one. fn reads only the fields in reads (nil: every field): a
// derived stream need write only the union of its subscribers' sets (see
// PublishDerivedBatch), so fn must not read a field outside its own. The
// batch and its tuples' field arrays are lent until fn returns. The
// returned function removes the subscription, like Subscribe's.
func (s *Stream) SubscribeBatch(reads *ReadSet, fn func([]Tuple)) (cancel func()) {
	s.mu.Lock()
	id := s.addLocked(subscriber{batch: fn, reads: reads})
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			delete(s.subs, id)
			for i, v := range s.order {
				if v == id {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
			s.rebuildHandlersLocked()
			s.mu.Unlock()
		})
	}
}

// Feed attaches s as a stream derived from src: fn, which publishes s's
// tuples (normally with PublishDerivedBatch), subscribes to src's batches,
// declaring need(r) as the fields of src it reads whenever r is the union
// of what s's own subscribers read — at once, and again each time s's
// subscribers change. need maps nil (every field) to nil. A stream is fed
// from at most one source, for the life of both.
func (s *Stream) Feed(src *Stream, need func(*ReadSet) *ReadSet, fn func([]Tuple)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.feed != nil {
		return fmt.Errorf("stream %q is already fed by %q", s.name, s.feed.src.name)
	}
	// Lock order: a derived stream before its source, here and in
	// rebuildHandlersLocked.
	src.mu.Lock()
	id := src.addLocked(subscriber{batch: fn, reads: need(s.Reads())})
	src.mu.Unlock()
	s.feed = &feed{src: src, id: id, need: need}
	return nil
}

// rebuildHandlersLocked regenerates the immutable delivery snapshot, and
// the read set of the subscription that feeds s, if any. Callers must hold
// s.mu.
func (s *Stream) rebuildHandlersLocked() {
	f := &fanout{subs: make([]subscriber, 0, len(s.order))}
	var union []int
	all := false
	for _, id := range s.order {
		if sub, ok := s.subs[id]; ok {
			f.subs = append(f.subs, sub)
			all = all || sub.reads == nil
			union = append(union, sub.reads.Fields()...)
		}
	}
	if !all {
		f.reads = NewReadSet(union...)
	}
	s.fanout.Store(f)
	if fd := s.feed; fd != nil {
		fd.src.mu.Lock()
		if sub, ok := fd.src.subs[fd.id]; ok {
			sub.reads = fd.need(f.reads)
			fd.src.subs[fd.id] = sub
			fd.src.rebuildHandlersLocked()
		}
		fd.src.mu.Unlock()
	}
}

// Reads returns the union of the fields the current subscribers read (nil:
// every field). A stream without subscribers reads the empty set.
func (s *Stream) Reads() *ReadSet {
	if f := s.fanout.Load(); f != nil {
		return f.reads
	}
	return noFields
}

// Publish delivers t to all current subscribers synchronously, in
// subscription order. The tuple must have exactly as many fields as the
// schema declares. t.Fields is lent to the subscribers until Publish returns
// and is the caller's again afterwards.
func (s *Stream) Publish(t Tuple) error {
	if len(t.Fields) != s.schema.Len() {
		return s.arityErr(t)
	}
	s.one[0] = t
	s.deliverBatch(s.fanout.Load(), s.one[:])
	s.one[0] = Tuple{}
	return nil
}

// PublishBatch delivers ts to all current subscribers synchronously, in
// subscription order, each getting the whole batch in one call (a Subscribe
// subscriber then takes it tuple after tuple). Every tuple must have as
// many fields as the schema declares; otherwise nothing is delivered. The
// batch and its field arrays are lent to the subscribers until PublishBatch
// returns.
func (s *Stream) PublishBatch(ts []Tuple) error {
	for i := range ts {
		if len(ts[i].Fields) != s.schema.Len() {
			return s.arityErr(ts[i])
		}
	}
	s.deliverBatch(s.fanout.Load(), ts)
	return nil
}

func (s *Stream) arityErr(t Tuple) error {
	return fmt.Errorf("stream %q: tuple has %d fields, schema %s expects %d",
		s.name, len(t.Fields), s.schema, s.schema.Len())
}

// deliverBatch hands ts to the subscribers of snapshot f. The snapshot is
// immutable, so subscribers may unsubscribe (or new ones subscribe) during
// delivery without invalidating this iteration — the change lands in the
// next snapshot.
func (s *Stream) deliverBatch(f *fanout, ts []Tuple) {
	if f != nil {
		for _, sub := range f.subs {
			sub.batch(ts)
		}
	}
	s.published.Add(uint64(len(ts)))
}

// PublishDerivedBatch publishes the batch build makes from in, one tuple
// per tuple of in. build is handed the union of the fields the current
// subscribers read (nil: every field) and need write only those. The
// result goes to exactly the subscribers that union was taken over: one
// snapshot decides both, so a subscriber that arrives meanwhile gets its
// first batch built for it. Like PublishBatch, the result is lent to the
// subscribers until PublishDerivedBatch returns.
func (s *Stream) PublishDerivedBatch(in []Tuple, build func([]Tuple, *ReadSet) []Tuple) error {
	f := s.fanout.Load()
	reads := noFields
	if f != nil {
		reads = f.reads
	}
	out := build(in, reads)
	if len(out) != len(in) {
		return fmt.Errorf("stream %q: derived %d tuples from a batch of %d", s.name, len(out), len(in))
	}
	for i := range out {
		if len(out[i].Fields) != s.schema.Len() {
			return s.arityErr(out[i])
		}
	}
	s.deliverBatch(f, out)
	return nil
}
