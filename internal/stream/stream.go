package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Stream is a named, schema-typed sequence of tuples with synchronous
// publish/subscribe fan-out. Publish delivers the tuple to every subscriber
// in subscription order before returning, giving deterministic per-tuple
// evaluation like AnduIN's operator graph.
//
// Subscribing and publishing are safe for concurrent use, but a single
// stream's tuples should be published from one goroutine at a time to
// preserve ordering.
type Stream struct {
	name   string
	schema *Schema

	mu    sync.RWMutex
	subs  map[int]func(Tuple)
	order []int
	next  int

	// handlers holds an immutable snapshot of the subscriber functions in
	// subscription order, rebuilt copy-on-write whenever the subscriber set
	// changes. Publish loads it atomically, so the per-tuple hot path does
	// not allocate and does not take the mutex.
	handlers atomic.Pointer[[]func(Tuple)]

	published atomic.Uint64
}

// New creates a stream with the given name and schema.
func New(name string, schema *Schema) (*Stream, error) {
	if name == "" {
		return nil, fmt.Errorf("stream: empty stream name")
	}
	if schema == nil {
		return nil, fmt.Errorf("stream: nil schema for stream %q", name)
	}
	return &Stream{name: name, schema: schema, subs: make(map[int]func(Tuple))}, nil
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Schema returns the stream schema.
func (s *Stream) Schema() *Schema { return s.schema }

// Published returns the number of tuples published so far.
func (s *Stream) Published() uint64 { return s.published.Load() }

// Subscribe registers fn to receive every future tuple. The returned
// function removes the subscription; calling it more than once is harmless.
func (s *Stream) Subscribe(fn func(Tuple)) (cancel func()) {
	s.mu.Lock()
	id := s.next
	s.next++
	s.subs[id] = fn
	s.order = append(s.order, id)
	s.rebuildHandlersLocked()
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

// rebuildHandlersLocked regenerates the immutable delivery snapshot. Callers
// must hold s.mu.
func (s *Stream) rebuildHandlersLocked() {
	hs := make([]func(Tuple), 0, len(s.order))
	for _, id := range s.order {
		if fn, ok := s.subs[id]; ok {
			hs = append(hs, fn)
		}
	}
	s.handlers.Store(&hs)
}

// SubscriberCount returns the current number of subscribers.
func (s *Stream) SubscriberCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.subs)
}

// Publish delivers t to all current subscribers synchronously, in
// subscription order. The tuple must have exactly as many fields as the
// schema declares. t.Fields is lent to the subscribers until Publish returns
// and is the caller's again afterwards.
func (s *Stream) Publish(t Tuple) error {
	if len(t.Fields) != s.schema.Len() {
		return fmt.Errorf("stream %q: tuple has %d fields, schema %s expects %d",
			s.name, len(t.Fields), s.schema, s.schema.Len())
	}
	// The snapshot is immutable, so subscribers may unsubscribe (or new ones
	// subscribe) during delivery without invalidating this iteration — the
	// change lands in the next snapshot.
	if hs := s.handlers.Load(); hs != nil {
		for _, fn := range *hs {
			fn(t)
		}
	}
	s.published.Add(1)
	return nil
}

// Derive creates a continuous view over src: for every tuple of src, f is
// evaluated; when it returns ok, the produced tuple is published on the
// derived stream. f borrows its argument like any subscriber; it may return
// it (Filter does), or a tuple over an array it reuses on its next call —
// the result is published, and so lent on, before f runs again. This is the
// shape of the paper's kinect_t transformation view (§3.2): "for applying
// all transformations, only a single step needs to be performed on the
// incoming data stream" (transform.View is that view, with its own
// subscriber so it can mark the end of each loan).
//
// The derived stream stays attached to src for the lifetime of the process;
// use DeriveCancelable when the view must be removable.
func Derive(src *Stream, name string, schema *Schema, f func(Tuple) (Tuple, bool)) (*Stream, error) {
	d, cancel, err := DeriveCancelable(src, name, schema, f)
	_ = cancel
	return d, err
}

// DeriveCancelable is Derive with an explicit detach function.
func DeriveCancelable(src *Stream, name string, schema *Schema, f func(Tuple) (Tuple, bool)) (*Stream, func(), error) {
	if src == nil {
		return nil, nil, fmt.Errorf("stream: Derive from nil source")
	}
	if f == nil {
		return nil, nil, fmt.Errorf("stream: Derive with nil transform")
	}
	d, err := New(name, schema)
	if err != nil {
		return nil, nil, err
	}
	cancel := src.Subscribe(func(t Tuple) {
		out, ok := f(t)
		if !ok {
			return
		}
		// An error here means the transform produced a tuple that does not
		// match the declared schema — a programming error in the view
		// definition. Surface it loudly instead of dropping data silently.
		if err := d.Publish(out); err != nil {
			panic(fmt.Sprintf("stream: view %q produced invalid tuple: %v", name, err))
		}
	})
	return d, cancel, nil
}

// Filter derives a stream containing only tuples for which pred is true.
// The schema is shared with the source.
func Filter(src *Stream, name string, pred func(Tuple) bool) (*Stream, error) {
	return Derive(src, name, src.Schema(), func(t Tuple) (Tuple, bool) {
		return t, pred(t)
	})
}

// Map derives a stream by applying a total transformation to every tuple.
func Map(src *Stream, name string, schema *Schema, f func(Tuple) Tuple) (*Stream, error) {
	return Derive(src, name, schema, func(t Tuple) (Tuple, bool) {
		return f(t), true
	})
}
