package stream

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Tuple is a single stream element: a timestamp plus a flat vector of
// float64 attribute values whose meaning is given by the stream's Schema.
// Subscribers never write to a published tuple's Fields, and may read them
// only until they return: the array is lent, not given (see the package
// documentation). Operators that modify values, and anyone who keeps the
// tuple, work on a copy (see Clone).
type Tuple struct {
	// Ts is the event time of the measurement (the Kinect frame time).
	Ts time.Time
	// Seq is a monotonically increasing sequence number assigned by the
	// producing source; it disambiguates tuples with equal timestamps.
	Seq uint64
	// Fields holds the attribute values in schema order.
	Fields []float64
}

// NewTuple constructs a tuple with a defensive copy of the field values.
func NewTuple(ts time.Time, seq uint64, fields []float64) Tuple {
	return Tuple{Ts: ts, Seq: seq, Fields: append([]float64(nil), fields...)}
}

// Clone returns a deep copy of the tuple: what a keeper of a lent tuple
// stores.
func (t Tuple) Clone() Tuple {
	return Tuple{Ts: t.Ts, Seq: t.Seq, Fields: append([]float64(nil), t.Fields...)}
}

// poisonLoans is the test hook behind EndLoan.
var poisonLoans atomic.Bool

// PoisonEndedLoans makes every EndLoan in the process overwrite the returned
// array with NaNs (true) or leave it alone (false, the default). Tests switch
// it on so that anything still reading a tuple after giving it back computes
// garbage instead of passing by luck.
func PoisonEndedLoans(on bool) { poisonLoans.Store(on) }

// EndLoan marks the end of a loan: a lender calls it on a field array (or a
// whole arena of them) once every borrower has returned and before the array
// is reused. It costs one atomic load unless a test asked for poisoning.
func EndLoan(fields []float64) {
	if poisonLoans.Load() {
		for i := range fields {
			fields[i] = math.NaN()
		}
	}
}

// Get returns the value of the named attribute under the given schema.
func (t Tuple) Get(s *Schema, name string) (float64, error) {
	i, ok := s.Index(name)
	if !ok {
		return 0, fmt.Errorf("stream: tuple has no attribute %q in schema %s", name, s)
	}
	if i >= len(t.Fields) {
		return 0, fmt.Errorf("stream: tuple too short (%d fields) for attribute %q at index %d", len(t.Fields), name, i)
	}
	return t.Fields[i], nil
}

// MustGet is like Get but panics on unknown attributes. Use only where the
// schema was validated beforehand (e.g. compiled predicates).
func (t Tuple) MustGet(s *Schema, name string) float64 {
	v, err := t.Get(s, name)
	if err != nil {
		panic(err)
	}
	return v
}

// Format renders the tuple using the schema's attribute names.
func (t Tuple) Format(s *Schema) string {
	var b strings.Builder
	b.WriteString(t.Ts.Format("15:04:05.000"))
	b.WriteString(" {")
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		name := fmt.Sprintf("f%d", i)
		if s != nil && i < s.Len() {
			name = s.FieldAt(i)
		}
		fmt.Fprintf(&b, "%s: %.2f", name, f)
	}
	b.WriteString("}")
	return b.String()
}
