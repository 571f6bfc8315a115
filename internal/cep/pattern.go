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

// Atom matches a single tuple satisfying Pred. Label is used in diagnostics
// and trace output (e.g. "pose 2 of swipe_right").
type Atom struct {
	Label string
	Pred  func(stream.Tuple) bool
}

func (*Atom) isPattern() {}

// Validate implements Pattern.
func (a *Atom) Validate() error {
	if a.Pred == nil {
		return fmt.Errorf("cep: atom %q has nil predicate", a.Label)
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

// NewAtom is a convenience constructor for an Atom.
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
