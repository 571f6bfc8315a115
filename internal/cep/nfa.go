package cep

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"gesturecep/internal/stream"
)

// state is one flattened NFA state: it accepts a single tuple satisfying
// every row of rows, or pred when the atom had no rows, and moves the run
// forward.
type state struct {
	label string
	rows  []Range
	pred  func(stream.Tuple) bool
}

// holds reports whether t satisfies the state. Rows are evaluated here, in
// the NFA's own loop; only a state compiled from a closure makes an
// indirect call.
func (s *state) holds(t *stream.Tuple) bool {
	if s.pred != nil {
		return s.pred(*t)
	}
	for _, r := range s.rows {
		if !(math.Abs(t.Fields[r.Field]-r.Center) < r.HalfWidth) {
			return false
		}
	}
	return true
}

// rowMask tests a state of range rows on up to 64 tuples: bit k of the
// result is set when ts[k] satisfies every row, exactly when holds(ts[k])
// would report it. The first row runs down the whole column of its field;
// each later row is tested only on the tuples that passed the rows before
// it, the set bits of the mask so far (a selection vector, as in
// MonetDB/X100). Every bit is set and cleared from the comparison's flag,
// with no branch on the outcome.
func (s *state) rowMask(ts []stream.Tuple) uint64 {
	r := &s.rows[0]
	var m uint64
	for k := range ts {
		m |= bit(math.Abs(ts[k].Fields[r.Field]-r.Center) < r.HalfWidth) << (k & 63)
	}
	for _, r := range s.rows[1:] {
		for rest := m; rest != 0; rest &= rest - 1 {
			k := bits.TrailingZeros64(rest)
			m &^= bit(!(math.Abs(ts[k].Fields[r.Field]-r.Center) < r.HalfWidth)) << k
		}
	}
	return m
}

// bit is 1 for true and 0 for false. The compiler makes it a SETcc, not a
// jump.
func bit(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
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
	// awaiting[next] is the deadline table: the windows a run awaiting
	// state next is inside, as deadline reads them. It has an entry past
	// the last state, for a run that has completed: that run is inside no
	// window.
	awaiting []openWindows
	sel      SelectPolicy
	consume  ConsumePolicy
}

// openWindows is the windows a run awaiting one state is inside: entered
// (first state matched) but not completed (last state pending). Those
// entered at state 0 all opened at the run's first tuple, so the earliest
// of them to close is the shortest: anchored is its within, 0 when there is
// none. later is every other open window, entered at a later state; a
// pattern learned as a left-nested sequence has none.
type openWindows struct {
	anchored time.Duration
	later    []windowConstraint
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
	prog.awaiting = make([]openWindows, len(prog.states)+1)
	for next := range prog.awaiting {
		w := &prog.awaiting[next]
		for _, c := range prog.constraints {
			switch {
			case next <= c.first || c.last < next:
				// not inside this window
			case c.first > 0:
				w.later = append(w.later, c)
			case w.anchored == 0 || c.within < w.anchored:
				w.anchored = c.within
			}
		}
	}
	return prog, nil
}

// flatten appends p's states to prog and records window constraints. It
// returns the index range [first, last] of the appended states.
func (prog *Program) flatten(p Pattern) (first, last int) {
	switch pt := p.(type) {
	case *Atom:
		prog.states = append(prog.states, state{label: pt.Label, rows: append([]Range(nil), pt.Ranges...), pred: pt.Pred})
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
// is two small allocations: the NFA and its empty per-state run queues.
func (prog *Program) Instantiate() *NFA {
	return &NFA{prog: prog, maxRuns: DefaultMaxRuns, queues: make([]runQueue, len(prog.states))}
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

	// queues[s] holds the partial matches awaiting state s (queues[0] stays
	// empty: a run has matched state 0 when it is made), each queue in
	// activation order, oldest first. Runs at one state pass or fail
	// together, so a whole queue moves on at once. A run that started
	// earlier has matched every state no later than a younger one. Hence
	// higher states hold older runs, and within a queue the windows a run
	// is inside were entered no later than a younger run's, so the cached
	// deadlines are non-decreasing: the runs a tuple expires are a prefix.
	queues []runQueue
	// live counts the runs across all queues.
	live int

	// done collects the runs one step completes, and found the matches
	// Process has step append; both are kept between steps so completing a
	// run allocates nothing but the Match it makes.
	done  []*run
	found []BatchMatch

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

// runQueue is the runs awaiting one state, oldest first: runs[head:] are
// live. Dropping an expired prefix only moves head; the array is compacted
// when an append would otherwise have to grow it.
type runQueue struct {
	runs []*run
	head int
}

// add appends rs, youngest last.
func (q *runQueue) add(rs ...*run) {
	if q.head > 0 && len(q.runs)+len(rs) > cap(q.runs) {
		q.runs = q.runs[:copy(q.runs, q.runs[q.head:])]
		q.head = 0
	}
	q.runs = append(q.runs, rs...)
}

// empty drops every run from the queue, keeping its array.
func (q *runQueue) empty() {
	q.runs = q.runs[:0]
	q.head = 0
}

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
func (n *NFA) ActiveRuns() int { return n.live }

// Reset discards all partial matches and statistics.
func (n *NFA) Reset() {
	clear(n.queues)
	n.live = 0
	n.free = nil
	n.processed, n.predCalls, n.matches, n.runsPruned = 0, 0, 0, 0
}

// getRun takes a run from the free list (or allocates one) and initialises
// it as a fresh partial match holding only t, matched at event time now.
func (n *NFA) getRun(t *stream.Tuple, now int64) *run {
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
	n.found = n.step(&t, 0, n.prog.states[0].holds(&t), n.found[:0])
	if len(n.found) == 0 {
		return nil
	}
	out := make([]Match, len(n.found))
	for i := range n.found {
		out[i] = n.found[i].Match
	}
	clear(n.found) // the Seqs are the caller's now
	return out
}

// BatchMatch is a match ProcessBatch completed: At is the index, in the
// batch, of its last tuple.
type BatchMatch struct {
	Match
	At int
}

// batchWidth is how many tuples ProcessBatch tests state 0 over at once:
// one bit each of a mask.
const batchWidth = 64

// ProcessBatch advances the automaton with every tuple of ts, in order, and
// appends the matches they complete to dst, each with the index of the tuple
// that completed it. Matches, run state and Stats come out exactly as from
// Process called on each tuple in turn; the batch only changes how state 0
// is asked. A state 0 of range rows is tested over up to 64 tuples at a
// time, row by row down the column of its field, into a bit mask, and
// while no run is live the tuples whose bit is clear are only counted:
// with nothing to advance they could do nothing else. A state 0 compiled to
// a closure is asked tuple by tuple. ts is borrowed like Process's tuple.
func (n *NFA) ProcessBatch(ts []stream.Tuple, dst []BatchMatch) []BatchMatch {
	first := &n.prog.states[0]
	if len(ts) == 1 {
		// A column of one: asking the state is the whole test.
		return n.step(&ts[0], 0, first.holds(&ts[0]), dst)
	}
	for base := 0; base < len(ts); base += batchWidth {
		chunk := ts[base:min(base+batchWidth, len(ts))]
		var starts uint64 // bit k: chunk[k] satisfies state 0, for a row state
		if first.pred == nil {
			starts = first.rowMask(chunk)
		}
		for k := 0; k < len(chunk); k++ {
			if n.live == 0 && first.pred == nil {
				skip := min(bits.TrailingZeros64(starts>>k), len(chunk)-k)
				n.processed += uint64(skip)
				n.predCalls += uint64(skip)
				if k += skip; k == len(chunk) {
					break
				}
			}
			var start bool
			if first.pred == nil {
				start = starts>>k&1 == 1
			} else {
				start = first.pred(chunk[k])
			}
			dst = n.step(&chunk[k], base+k, start, dst)
		}
	}
	return dst
}

// step advances the automaton with tuple t, index at of its batch, whose
// state-0 test came out start, and appends the matches it completes to dst.
func (n *NFA) step(t *stream.Tuple, at int, start bool, dst []BatchMatch) []BatchMatch {
	states := n.prog.states
	last := len(states) - 1
	now := t.Ts.UnixNano()
	n.processed++
	n.predCalls++ // state 0, asked by the caller
	completed := n.done[:0]

	// One pass over the awaited states, last to first, so a queue that
	// moves on lands on a state this tuple is already done with (each run
	// consumes at most one tuple per step). Per queue: drop the runs whose
	// earliest window has closed — a prefix, see NFA.queues — then ask the
	// state once and, on a pass, advance the whole queue. A run that
	// advances cannot die of it: its open windows have just been checked at
	// this very time, and a window entered now closes no earlier than now.
	// Runs awaiting state k+1 are older than those awaiting k, so a moved
	// queue goes behind the one it joins and both orders hold.
	for s := last; s >= 1 && n.live > 0; s-- {
		q := &n.queues[s]
		if q.head == len(q.runs) {
			continue
		}
		live := q.runs[q.head:]
		dead := 0
		for dead < len(live) && now > live[dead].deadline {
			n.putRun(live[dead])
			dead++
		}
		n.runsPruned += uint64(dead)
		n.live -= dead
		if dead == len(live) {
			q.empty()
			continue
		}
		q.head += dead
		live = live[dead:]
		n.predCalls++
		if !states[s].holds(t) {
			continue
		}
		for _, r := range live {
			r.ts = append(r.ts, now)
			r.seqs = append(r.seqs, t.Seq)
			r.next++
		}
		if s == last {
			completed = append(completed, live...)
			n.live -= len(live)
		} else {
			for _, r := range live {
				r.deadline = n.prog.deadline(r)
			}
			n.queues[s+1].add(live...)
		}
		q.empty()
	}

	// Start a fresh run with this tuple.
	if start {
		r := n.getRun(t, now)
		if last == 0 {
			completed = append(completed, r)
		} else {
			if n.live >= n.maxRuns {
				// Completed runs have already left the queues, so only live
				// runs count against the cap.
				n.evictOldest()
			}
			n.queues[1].add(r)
			n.live++
		}
	}
	n.done = completed[:0]
	if len(completed) == 0 {
		return dst
	}

	// Apply selection policy. Runs complete in activation order, so the
	// first element is the earliest-started instance.
	selected := completed
	if n.prog.sel == SelectFirst {
		selected = completed[:1]
	}
	for _, r := range selected {
		// A run completes on the tuple in hand: t is its last matched tuple.
		dst = append(dst, BatchMatch{At: at, Match: Match{
			Start: r.start,
			End:   t.Ts,
			Seqs:  append([]uint64(nil), r.seqs...),
		}})
	}
	n.matches += uint64(len(selected))
	// Matches copy the seqs out above, so every completed run (selected or
	// not) can be recycled now.
	for _, r := range completed {
		n.putRun(r)
	}

	if n.prog.consume == ConsumeAll {
		// Consuming a match invalidates all in-flight partial matches.
		n.runsPruned += uint64(n.live)
		for i := range n.queues {
			q := &n.queues[i]
			for _, r := range q.runs[q.head:] {
				n.putRun(r)
			}
			q.empty()
		}
		n.live = 0
	}
	return dst
}

// evictOldest drops the oldest partial run to bound memory: the head of the
// highest non-empty queue (see NFA.queues).
func (n *NFA) evictOldest() {
	for s := len(n.queues) - 1; s >= 1; s-- {
		q := &n.queues[s]
		if q.head == len(q.runs) {
			continue
		}
		n.putRun(q.runs[q.head])
		q.head++
		if q.head == len(q.runs) {
			q.empty()
		}
		n.live--
		n.runsPruned++
		return
	}
}

// deadline returns the earliest closing time among the windows r is inside
// — entered (first state matched) but not completed (last state pending):
// the tuple matching a window's last state must arrive no later than within
// after the one that matched its first. A closing time beyond int64 is no
// deadline. It reads the windows off prog.awaiting: the shortest one
// anchored at state 0 is one add to r's first time, the others a loop.
func (prog *Program) deadline(r *run) int64 {
	w := &prog.awaiting[r.next]
	d := noDeadline
	if w.anchored > 0 {
		if end := r.ts[0] + int64(w.anchored); end >= r.ts[0] {
			d = end
		}
	}
	for _, c := range w.later {
		entered := r.ts[c.first]
		if end := entered + int64(c.within); end >= entered && end < d {
			d = end
		}
	}
	return d
}
