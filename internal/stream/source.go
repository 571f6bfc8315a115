package stream

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Replay publishes the given tuples on s in order, as fast as possible.
// It is the standard driver for tests and benchmarks: event time lives in
// the tuples themselves, so detection semantics are identical to real-time
// playback.
func Replay(s *Stream, tuples []Tuple) error {
	for i, t := range tuples {
		if err := s.Publish(t); err != nil {
			return fmt.Errorf("stream: replay tuple %d: %w", i, err)
		}
	}
	return nil
}

// ReplayRealtime publishes tuples paced by their timestamps: the gap between
// consecutive tuples is reproduced as wall-clock sleep (scaled by speedup,
// e.g. 2.0 plays twice as fast). It stops early when ctx is cancelled.
// This is used by the interactive examples to emulate a live 30 Hz camera.
func ReplayRealtime(ctx context.Context, s *Stream, tuples []Tuple, speedup float64) error {
	if speedup <= 0 {
		return fmt.Errorf("stream: speedup must be positive, got %g", speedup)
	}
	for i, t := range tuples {
		if i > 0 {
			gap := t.Ts.Sub(tuples[i-1].Ts)
			if gap > 0 {
				wait := time.Duration(float64(gap) / speedup)
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(wait):
				}
			}
		}
		if err := s.Publish(t); err != nil {
			return fmt.Errorf("stream: realtime replay tuple %d: %w", i, err)
		}
	}
	return nil
}

// Pump copies tuples from ch onto the stream until ch is closed or ctx is
// cancelled. It returns the first publish error encountered.
func Pump(ctx context.Context, s *Stream, ch <-chan Tuple) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case t, ok := <-ch:
			if !ok {
				return nil
			}
			if err := s.Publish(t); err != nil {
				return err
			}
		}
	}
}

// Collector is a subscriber that records a copy of every tuple it receives
// (a published tuple is only lent). It is safe for concurrent use and is used
// pervasively in tests.
type Collector struct {
	mu     sync.Mutex
	tuples []Tuple
}

// Attach subscribes the collector to s and returns the cancel function.
func (c *Collector) Attach(s *Stream) func() {
	return s.Subscribe(func(t Tuple) {
		t = t.Clone()
		c.mu.Lock()
		c.tuples = append(c.tuples, t)
		c.mu.Unlock()
	})
}

// Tuples returns a snapshot of the collected tuples.
func (c *Collector) Tuples() []Tuple {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Tuple(nil), c.tuples...)
}

// Len returns the number of collected tuples.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tuples)
}

// Reset discards all collected tuples.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.tuples = nil
	c.mu.Unlock()
}
