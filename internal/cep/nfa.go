package cep

import (
	"fmt"
	"math"
	"time"

	"gesturecep/internal/stream"
)

// state is one flattened NFA state: it accepts a single tuple satisfying
// pred and moves the run forward.
type state struct {
	label string
	pred  func(stream.Tuple) bool
}

// windowConstraint enforces a `within` clause over the atoms [first, last]
// (inclusive, indices into the flattened state list): the tuple matched at
// state `last` must arrive no later than `within` after the tuple matched at
// state `first`.
type windowConstraint struct {
	first, last int
	within      time.Duration
}

// Program is the immutable, compiled form of a Pattern: the flattened state
// list, window constraints and policies, with no run state. A Program is
// safe to share between any number of NFAs — the serving layer compiles each
// learned query once and instantiates a cheap per-session NFA from the
// shared Program, so ten thousand sessions do not re-flatten the pattern.
type Program struct {
	states      []state
	constraints []windowConstraint
	sel         SelectPolicy
	consume     ConsumePolicy
}

// CompileProgram flattens a validated Pattern into a shareable Program.
func CompileProgram(p Pattern, sel SelectPolicy, consume ConsumePolicy) (*Program, error) {
	if p == nil {
		return nil, fmt.Errorf("cep: nil pattern")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	prog := &Program{sel: sel, consume: consume}
	prog.flatten(p)
	if len(prog.states) == 0 {
		return nil, fmt.Errorf("cep: pattern compiled to zero states")
	}
	return prog, nil
}

// flatten appends p's states to prog and records window constraints. It
// returns the index range [first, last] of the appended states.
func (prog *Program) flatten(p Pattern) (first, last int) {
	switch pt := p.(type) {
	case *Atom:
		prog.states = append(prog.states, state{label: pt.Label, pred: pt.Pred})
		i := len(prog.states) - 1
		return i, i
	case *Sequence:
		first = len(prog.states)
		for _, e := range pt.Elems {
			_, last = prog.flatten(e)
		}
		if pt.Within > 0 {
			prog.constraints = append(prog.constraints, windowConstraint{first: first, last: last, within: pt.Within})
		}
		return first, last
	default:
		panic(fmt.Sprintf("cep: unknown pattern type %T", p))
	}
}

// Len returns the number of program states (atoms in the pattern).
func (prog *Program) Len() int { return len(prog.states) }

// Select returns the program's selection policy.
func (prog *Program) Select() SelectPolicy { return prog.sel }

// Consume returns the program's consumption policy.
func (prog *Program) Consume() ConsumePolicy { return prog.consume }

// Instantiate creates a fresh NFA executing the shared program. The returned
// NFA carries only run state (partial matches and counters), so instantiation
// is O(1) and allocation-light regardless of pattern size.
func (prog *Program) Instantiate() *NFA {
	return &NFA{prog: prog, maxRuns: DefaultMaxRuns}
}

// NFA is an executable instance of a compiled Program. It follows
// skip-till-next-match semantics: tuples that do not satisfy the next state
// of a run are ignored (the run waits), which is what makes pose-sequence
// gesture queries robust against the 30 Hz tuples between poses. Runs are
// discarded as soon as a window constraint can no longer be met.
//
// Event time inside the NFA is the tuple's wall-clock reading as int64
// nanoseconds since the Unix epoch (Time.UnixNano — the unit the wire and
// the store carry), so timestamps must lie between the years 1678 and 2262
// and a monotonic clock reading on Tuple.Ts is ignored. Matches report the
// first and last matched tuples' own time.Time values.
//
// Process borrows its tuple (the stream package's lend contract): a run
// remembers when and at which Seq each state matched, never the tuple or
// its field array, so the caller may reuse both as soon as Process returns.
//
// Predicates must be pure functions of the tuple: every run waiting at the
// same state shares one evaluation per tuple.
//
// An NFA is not safe for concurrent use; the engine serializes Process
// calls per stream. The underlying Program is immutable and may be shared
// by many NFAs concurrently.
type NFA struct {
	prog *Program

	// maxRuns caps simultaneous partial matches to bound memory under
	// adversarial input; the oldest run is evicted when exceeded.
	maxRuns int

	// runs holds the partial matches in activation order, oldest first. A
	// run that started earlier has matched every state no later than a
	// younger one, so the list is also ordered by next, descending: runs
	// waiting at the same state are adjacent.
	runs []*run

	// free recycles run objects (and their ts/seqs backing arrays) so the
	// steady-state Process path does not allocate. An NFA is single-threaded
	// by contract, so a plain slice suffices. Bounded by maxRuns.
	free []*run

	// stats
	processed  uint64
	predCalls  uint64
	matches    uint64
	runsPruned uint64
}

// run is one partial match: next is the state awaiting a tuple, ts[i] and
// seqs[i] hold the event time and Seq of the tuple matched at state i < next,
// start the first one's Ts as it arrived (Match.Start).
type run struct {
	next int
	// deadline is the earliest event time at which one of the windows the
	// run is inside closes, cached when the run advances: the run dies on
	// the first tuple later than it. noDeadline when inside no window.
	deadline int64
	start    time.Time
	ts       []int64
	seqs     []uint64
}

const noDeadline int64 = math.MaxInt64

// DefaultMaxRuns bounds simultaneous partial matches per query.
const DefaultMaxRuns = 1024

// Compile flattens a validated Pattern into an executable NFA. It is
// CompileProgram followed by Instantiate; callers that deploy the same
// pattern many times should compile the Program once and instantiate per
// deployment instead.
func Compile(p Pattern, sel SelectPolicy, consume ConsumePolicy) (*NFA, error) {
	prog, err := CompileProgram(p, sel, consume)
	if err != nil {
		return nil, err
	}
	return prog.Instantiate(), nil
}

// Program returns the shared compiled program this NFA executes.
func (n *NFA) Program() *Program { return n.prog }

// Len returns the number of NFA states (atoms in the pattern).
func (n *NFA) Len() int { return len(n.prog.states) }

// SetMaxRuns adjusts the partial-match cap. Values < 1 are ignored.
func (n *NFA) SetMaxRuns(limit int) {
	if limit >= 1 {
		n.maxRuns = limit
	}
}

// ActiveRuns returns the number of live partial matches.
func (n *NFA) ActiveRuns() int { return len(n.runs) }

// Reset discards all partial matches and statistics.
func (n *NFA) Reset() {
	n.runs = nil
	n.free = nil
	n.processed, n.predCalls, n.matches, n.runsPruned = 0, 0, 0, 0
}

// getRun takes a run from the free list (or allocates one) and initialises
// it as a fresh partial match holding only t, matched at event time now.
func (n *NFA) getRun(t stream.Tuple, now int64) *run {
	var r *run
	if len(n.free) > 0 {
		r = n.free[len(n.free)-1]
		n.free = n.free[:len(n.free)-1]
	} else {
		r = &run{}
	}
	r.next = 1
	r.start = t.Ts
	r.ts = append(r.ts[:0], now)
	r.seqs = append(r.seqs[:0], t.Seq)
	r.deadline = n.prog.deadline(r)
	return r
}

// putRun recycles a run that is no longer referenced anywhere.
func (n *NFA) putRun(r *run) {
	if len(n.free) >= n.maxRuns {
		return
	}
	n.free = append(n.free, r)
}

// Stats reports counters accumulated since the last Reset. predCalls counts
// predicate evaluations, at most one per pattern state per tuple.
func (n *NFA) Stats() (processed, predCalls, matches, pruned uint64) {
	return n.processed, n.predCalls, n.matches, n.runsPruned
}

// Process advances the automaton with one tuple and returns any matches it
// completes. Tuples must arrive in non-decreasing timestamp order.
func (n *NFA) Process(t stream.Tuple) []Match {
	states := n.prog.states
	now := t.Ts.UnixNano()
	n.processed++

	var completed []*run

	// One pass over the partial matches: drop a run whose earliest window
	// has closed, advance one whose awaited state accepts t (each consumes at
	// most one tuple per step), keep the rest waiting. Runs waiting at the
	// same state are adjacent (see NFA.runs), so re-evaluating only when the
	// state changes asks each state's predicate once. A run that advances
	// cannot die of it: its open windows have just been checked at this very
	// time, and a window entered now closes no earlier than now.
	kept := n.runs[:0]
	state, holds := 0, false
	for _, r := range n.runs {
		if now > r.deadline {
			n.runsPruned++
			n.putRun(r)
			continue
		}
		if r.next != state {
			state = r.next
			holds = states[state].pred(t)
			n.predCalls++
		}
		if holds {
			r.ts = append(r.ts, now)
			r.seqs = append(r.seqs, t.Seq)
			r.next++
			if r.next == len(states) {
				completed = append(completed, r)
				continue
			}
			r.deadline = n.prog.deadline(r)
		}
		kept = append(kept, r)
	}
	n.runs = kept

	// Try to start a fresh run with this tuple.
	n.predCalls++
	if states[0].pred(t) {
		r := n.getRun(t, now)
		if len(states) == 1 {
			r.next = len(states)
			completed = append(completed, r)
		} else {
			if len(n.runs) >= n.maxRuns {
				// Evict the oldest partial run to bound memory. Completed
				// runs have already left the set, so only live runs count
				// against the cap. Shifting down keeps the backing array in
				// place under sustained eviction.
				n.putRun(n.runs[0])
				n.runs = n.runs[:copy(n.runs, n.runs[1:])]
				n.runsPruned++
			}
			n.runs = append(n.runs, r)
		}
	}

	if len(completed) == 0 {
		return nil
	}

	// Apply selection policy. Runs complete in activation order, so the
	// first element is the earliest-started instance.
	selected := completed
	if n.prog.sel == SelectFirst {
		selected = completed[:1]
	}
	out := make([]Match, 0, len(selected))
	for _, r := range selected {
		// A run completes on the tuple in hand: t is its last matched tuple.
		out = append(out, Match{
			Start: r.start,
			End:   t.Ts,
			Seqs:  append([]uint64(nil), r.seqs...),
		})
	}
	n.matches += uint64(len(out))
	// Matches copy the seqs out above, so every completed run (selected or
	// not) can be recycled now.
	for _, r := range completed {
		n.putRun(r)
	}

	if n.prog.consume == ConsumeAll {
		// Consuming a match invalidates all in-flight partial matches.
		n.runsPruned += uint64(len(n.runs))
		for _, r := range n.runs {
			n.putRun(r)
		}
		n.runs = n.runs[:0]
	}
	return out
}

// deadline returns the earliest closing time among the windows r is inside
// — entered (first state matched) but not completed (last state pending):
// the tuple matching a window's last state must arrive no later than within
// after the one that matched its first. A closing time beyond int64 is no
// deadline.
func (prog *Program) deadline(r *run) int64 {
	d := noDeadline
	for _, c := range prog.constraints {
		if c.first < r.next && r.next <= c.last {
			entered := r.ts[c.first]
			if end := entered + int64(c.within); end >= entered && end < d {
				d = end
			}
		}
	}
	return d
}
