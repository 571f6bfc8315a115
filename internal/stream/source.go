package stream

import "sync"

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
