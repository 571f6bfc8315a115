// Package cep implements the complex-event-processing pattern matcher that
// AnduIN exposes as its MATCH operator (§2 of the paper): sequences of
// predicate-guarded events combined with the -> operator, optional `within`
// time constraints, and `select` / `consume` policies, evaluated with a
// non-deterministic finite automaton (NFA) over a tuple stream.
package cep

import (
	"fmt"
	"time"

	"gesturecep/internal/stream"
)

// SelectPolicy controls which of several simultaneously completing pattern
// instances produce a match.
type SelectPolicy int

const (
	// SelectFirst emits only the earliest-started completing run per tuple.
	// This is the policy the paper's generated queries use
	// ("select first").
	SelectFirst SelectPolicy = iota
	// SelectAll emits every completing run.
	SelectAll
)

// String implements fmt.Stringer.
func (p SelectPolicy) String() string {
	switch p {
	case SelectFirst:
		return "first"
	case SelectAll:
		return "all"
	}
	return fmt.Sprintf("SelectPolicy(%d)", int(p))
}

// ConsumePolicy controls what happens to partial matches once a match is
// emitted.
type ConsumePolicy int

const (
	// ConsumeAll discards all partial runs when a match fires, so events
	// participate in at most one detection ("consume all" in generated
	// queries). This prevents one physical gesture from firing twice.
	ConsumeAll ConsumePolicy = iota
	// ConsumeNone keeps partial runs alive across matches.
	ConsumeNone
)

// String implements fmt.Stringer.
func (p ConsumePolicy) String() string {
	switch p {
	case ConsumeAll:
		return "all"
	case ConsumeNone:
		return "none"
	}
	return fmt.Sprintf("ConsumePolicy(%d)", int(p))
}

// Pattern is the abstract syntax of a MATCHING clause: either an Atom (a
// single predicate over one tuple) or a Sequence combining sub-patterns with
// the -> operator.
type Pattern interface {
	isPattern()
	// Validate reports structural problems (nil predicates, empty
	// sequences, negative windows).
	Validate() error
}

// Atom matches a single tuple satisfying its predicate, given one of two
// ways. Ranges, when the atom has any, is a conjunction of range rows — the
// shape every learned pose has (§3.3.4), which the NFA evaluates inline.
// Pred is any other predicate, as a closure. An atom has exactly one of the
// two. Label is used in diagnostics and trace output (e.g. "pose 2 of
// swipe_right").
type Atom struct {
	Label  string
	Ranges []Range
	Pred   func(stream.Tuple) bool
}

// Range is one row of a range predicate: it holds on a tuple whose field
// Field lies strictly within HalfWidth of Center, computed as
// |Fields[Field] − Center| < HalfWidth. It is the same float expression as
// the query language's abs(attr - c) < w, so a NaN field or bound fails the
// row and ±Inf behaves as IEEE subtraction says.
type Range struct {
	Field             int
	Center, HalfWidth float64
}

func (*Atom) isPattern() {}

// Validate implements Pattern.
func (a *Atom) Validate() error {
	switch {
	case len(a.Ranges) == 0 && a.Pred == nil:
		return fmt.Errorf("cep: atom %q has no predicate", a.Label)
	case len(a.Ranges) > 0 && a.Pred != nil:
		return fmt.Errorf("cep: atom %q has both range rows and a predicate", a.Label)
	}
	return nil
}

// Sequence matches its elements in order (the -> operator). If Within is
// positive, the timestamps of the first and last matched tuple of the
// sequence must differ by at most Within — exactly the semantics of the
// paper's "within 1 seconds" clauses, which may be attached to nested
// sub-sequences independently.
type Sequence struct {
	Elems  []Pattern
	Within time.Duration
}

func (*Sequence) isPattern() {}

// Validate implements Pattern.
func (s *Sequence) Validate() error {
	if len(s.Elems) == 0 {
		return fmt.Errorf("cep: empty sequence")
	}
	if s.Within < 0 {
		return fmt.Errorf("cep: negative within duration %v", s.Within)
	}
	for i, e := range s.Elems {
		if e == nil {
			return fmt.Errorf("cep: nil element %d in sequence", i)
		}
		if err := e.Validate(); err != nil {
			return fmt.Errorf("cep: sequence element %d: %w", i, err)
		}
	}
	return nil
}

// Seq is a convenience constructor for a Sequence without a time constraint.
func Seq(elems ...Pattern) *Sequence { return &Sequence{Elems: elems} }

// SeqWithin is a convenience constructor for a time-constrained Sequence.
func SeqWithin(within time.Duration, elems ...Pattern) *Sequence {
	return &Sequence{Elems: elems, Within: within}
}

// NewAtom is a convenience constructor for an Atom with a closure predicate.
func NewAtom(label string, pred func(stream.Tuple) bool) *Atom {
	return &Atom{Label: label, Pred: pred}
}

// Match is one successful pattern instance. The last contributing tuple is
// always the one Process was called with when it returned the match.
type Match struct {
	// Start and End are the timestamps of the first and last contributing
	// tuple.
	Start, End time.Time
	// Seqs holds the Seq of the tuple matched by each atom, in pattern order.
	Seqs []uint64
}

// Duration returns End - Start.
func (m Match) Duration() time.Duration { return m.End.Sub(m.Start) }
