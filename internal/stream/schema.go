// Package stream implements the data-stream substrate underneath the CEP
// engine: typed tuples with named float64 attributes, schemas, synchronous
// publish/subscribe streams, derived streams fed batch by batch (continuous
// views such as the paper's kinect_t, §3.2) and a replay source.
//
// The design is deliberately push-based and synchronous: a tuple published
// on a stream is handed to every subscriber before Publish returns. This
// mirrors how AnduIN evaluates its operator graph per arriving tuple and
// keeps detection latency deterministic, which the evaluation harness
// measures. Asynchrony, when needed, lives outside this package (the
// serving layer's shard queues).
//
// # Lent tuples
//
// A published tuple is lent for the duration of Publish: the publisher owns
// Tuple.Fields and may overwrite or recycle the array the moment Publish
// returns (the serving path decodes wire batches into a recycled buffer and
// writes the kinect_t view into one arena per stream). A batch published
// with PublishBatch is lent the same way, slice and field arrays, until
// PublishBatch returns. A subscriber may read the tuple, and hand it on to
// its own subscribers, until it returns; whoever keeps it longer — a
// collector, an asynchronous recorder, a test — keeps a Clone. The value
// parts (Ts, Seq) may be kept freely. DESIGN.md, "Tuple field-array
// ownership", lists every owner and keeper.
//
// # Read sets
//
// A batch subscriber declares which fields it reads (SubscribeBatch; nil is
// every field). A stream tracks the union over its subscribers, and a
// derived stream that builds its tuples field by field
// (PublishDerivedBatch) need only write that union: the other fields of a
// tuple it publishes are unspecified. A plain subscriber (Subscribe) reads
// every field, so it always gets a whole tuple. A derived stream attached
// with Feed declares to its source what it reads to build its union, so the
// union of the source is what the whole chain reads.
package stream

import (
	"fmt"
	"strings"
)

// Schema describes the attributes of tuples on a stream. Attribute values
// are float64 (all Kinect joint coordinates are metric values); the tuple
// timestamp is carried separately. Schemas are immutable after construction
// and safe for concurrent use.
type Schema struct {
	fields []string
	index  map[string]int
}

// NewSchema builds a schema from the given attribute names. Names must be
// non-empty and unique.
func NewSchema(fields ...string) (*Schema, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("stream: schema needs at least one field")
	}
	s := &Schema{
		fields: append([]string(nil), fields...),
		index:  make(map[string]int, len(fields)),
	}
	for i, f := range fields {
		if f == "" {
			return nil, fmt.Errorf("stream: empty field name at position %d", i)
		}
		if _, dup := s.index[f]; dup {
			return nil, fmt.Errorf("stream: duplicate field name %q", f)
		}
		s.index[f] = i
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on error. Intended for
// package-level schema constants.
func MustSchema(fields ...string) *Schema {
	s, err := NewSchema(fields...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.fields) }

// Fields returns a copy of the attribute names in declaration order.
func (s *Schema) Fields() []string { return append([]string(nil), s.fields...) }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(name string) bool {
	_, ok := s.index[name]
	return ok
}

// FieldAt returns the name of the attribute at position i.
func (s *Schema) FieldAt(i int) string { return s.fields[i] }

// Extend returns a new schema with the additional attributes appended.
func (s *Schema) Extend(extra ...string) (*Schema, error) {
	return NewSchema(append(s.Fields(), extra...)...)
}

// String implements fmt.Stringer.
func (s *Schema) String() string {
	return "(" + strings.Join(s.fields, ", ") + ")"
}

// Equal reports whether two schemas declare the same attributes in the same
// order.
func (s *Schema) Equal(o *Schema) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil || len(s.fields) != len(o.fields) {
		return false
	}
	for i := range s.fields {
		if s.fields[i] != o.fields[i] {
			return false
		}
	}
	return true
}
