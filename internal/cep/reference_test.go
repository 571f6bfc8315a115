package cep

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"gesturecep/internal/stream"
)

// refNFA is the test-only reference matcher: the engine's Process,
// satisfiable, expire and sweep as they stood before the per-tuple step was
// specialised, kept verbatim over a Program's closure predicates — one
// predicate call per run per tuple, time.Time arithmetic per run per
// constraint. The NFA must produce the same matches and counters; only its
// predCalls may be lower.
//
// One deliberate difference from that original, made together with the
// engine: the sweep runs before the run cap is checked, so runs completed
// on this tuple no longer count against the cap (they used to get a live
// oldest run evicted, or be counted as pruned themselves).
type refNFA struct {
	prog    *Program
	maxRuns int
	runs    []*refRun

	processed  uint64
	predCalls  uint64
	matches    uint64
	runsPruned uint64
	evicted    uint64 // cap evictions among runsPruned; the test checks its generator with it
}

// refMatch is what the reference reports: it still captures the matched
// tuples themselves, which Match no longer does; the differential compares
// their Seqs against Match.Seqs.
type refMatch struct {
	Start, End time.Time
	Tuples     []stream.Tuple
}

type refRun struct {
	next   int
	ts     []time.Time
	tuples []stream.Tuple
}

func newRefNFA(prog *Program, maxRuns int) *refNFA {
	return &refNFA{prog: prog, maxRuns: maxRuns}
}

func (n *refNFA) Process(t stream.Tuple) []refMatch {
	states := n.prog.states
	n.processed++
	n.expire(t.Ts)

	var completed []*refRun

	// Advance existing runs. Each run consumes at most one tuple per step.
	for _, r := range n.runs {
		st := states[r.next]
		n.predCalls++
		if !st.pred(t) {
			continue
		}
		r.ts = append(r.ts, t.Ts)
		r.tuples = append(r.tuples, t)
		r.next++
		if !n.satisfiable(r, t.Ts) {
			r.next = -1 // mark dead; swept below
			n.runsPruned++
			continue
		}
		if r.next == len(states) {
			completed = append(completed, r)
		}
	}

	// Sweep dead and completed runs out of the active set.
	n.sweep()

	// Try to start a fresh run with this tuple.
	n.predCalls++
	if states[0].pred(t) {
		r := &refRun{next: 1, ts: []time.Time{t.Ts}, tuples: []stream.Tuple{t}}
		if len(states) == 1 {
			r.next = len(states)
			completed = append(completed, r)
		} else if n.satisfiable(r, t.Ts) {
			n.runs = append(n.runs, r)
			if len(n.runs) > n.maxRuns {
				// Evict the oldest partial run to bound memory.
				n.runs = n.runs[1:]
				n.runsPruned++
				n.evicted++
			}
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
	out := make([]refMatch, 0, len(selected))
	for _, r := range selected {
		out = append(out, refMatch{
			Start:  r.ts[0],
			End:    r.ts[len(r.ts)-1],
			Tuples: append([]stream.Tuple(nil), r.tuples...),
		})
	}
	n.matches += uint64(len(out))

	if n.prog.consume == ConsumeAll {
		// Consuming a match invalidates all in-flight partial matches.
		n.runsPruned += uint64(len(n.runs))
		n.runs = n.runs[:0]
	}
	return out
}

func (n *refNFA) satisfiable(r *refRun, now time.Time) bool {
	for _, c := range n.prog.constraints {
		if r.next <= c.first {
			continue // constraint window not entered yet
		}
		deadline := r.ts[c.first].Add(c.within)
		if r.next > c.last {
			// Fully matched: verify the recorded times.
			if r.ts[c.last].After(deadline) {
				return false
			}
			continue
		}
		// Partially inside the window: the last state will be matched at
		// some time >= now.
		if now.After(deadline) {
			return false
		}
	}
	return true
}

func (n *refNFA) expire(now time.Time) {
	if len(n.runs) == 0 || len(n.prog.constraints) == 0 {
		return
	}
	kept := n.runs[:0]
	for _, r := range n.runs {
		if n.satisfiable(r, now) {
			kept = append(kept, r)
		} else {
			n.runsPruned++
		}
	}
	n.runs = kept
}

func (n *refNFA) sweep() {
	kept := n.runs[:0]
	for _, r := range n.runs {
		if r.next >= 0 && r.next < len(n.prog.states) {
			kept = append(kept, r)
		}
	}
	n.runs = kept
}

// frame is the Kinect's 30 Hz tuple spacing.
const frame = 33 * time.Millisecond

// learnerShaped builds a random pattern of 2–6 atoms and returns it twice
// over the same predicates: once as the engine runs it, and once with every
// range row rewritten as a closure for the reference. Half the patterns have
// the shape learn.GenerateQuery emits: a left-nested sequence
// ((p0 -> p1 within d1) -> p2 within d2) …, each level's window covering the
// poses so far, so every window opens at state 0. The other half nest at
// random, like p0 -> (p1 -> p2 within d) or
// (p0 -> (p1 -> p2 within d1)) -> p3 within d2, so windows also open at a
// later state, and a run is inside windows entered at different times.
//
// Pose k mostly tests range rows, as learned poses do: field 0 within a
// half-width of k — 1 (k alone, with k ± 1 exactly on the open edge) or 1.5
// (a neighbour too, like overlapping pose windows, so one tuple can
// complete a run and start the next) — and now and then field 1 within 2 of
// 0. The other poses are closures accepting k and random other values, the
// shape of a predicate the query compiler cannot turn into rows. Most
// sequences carry a window, a few do not, so inner-only and outer-only
// constraints both occur. Windows are whole frames, like the stream's gaps,
// so a tuple landing exactly on a deadline (which must still match) is
// common.
func learnerShaped(rng *rand.Rand) (engine, ref Pattern, atoms int) {
	atoms = 2 + rng.Intn(5)
	pose := func(k int) (engine, ref Pattern) {
		label := fmt.Sprintf("pose%d", k)
		if rng.Intn(4) == 0 {
			accepts := uint(1) << k
			for v := 0; v < atoms; v++ {
				if rng.Intn(5) == 0 {
					accepts |= 1 << v
				}
			}
			a := NewAtom(label, func(t stream.Tuple) bool {
				v := t.Fields[0]
				return v == v && accepts>>uint(v)&1 == 1
			})
			return a, a
		}
		rows := []Range{{Field: 0, Center: float64(k), HalfWidth: []float64{1, 1.5}[rng.Intn(2)]}}
		if rng.Intn(3) == 0 {
			rows = append(rows, Range{Field: 1, Center: 0, HalfWidth: 2})
		}
		return &Atom{Label: label, Ranges: rows}, NewAtom(label, func(t stream.Tuple) bool {
			for _, r := range rows {
				if d := t.Fields[r.Field] - r.Center; !(d < r.HalfWidth && -d < r.HalfWidth) {
					return false
				}
			}
			return true
		})
	}
	engines, refs := make([]Pattern, atoms), make([]Pattern, atoms)
	for k := range atoms {
		engines[k], refs[k] = pose(k)
	}
	// window returns the within of a sequence spanning the given number of
	// atoms: a few frames per step, or now and then none.
	window := func(span int) time.Duration {
		var d time.Duration
		for range span - 1 {
			d += time.Duration(3+rng.Intn(9)) * frame
		}
		if rng.Intn(5) == 0 {
			return 0 // this level is unconstrained
		}
		return d
	}
	if rng.Intn(2) == 0 {
		engine, ref = engines[0], refs[0]
		for k := 1; k < atoms; k++ {
			within := window(k + 1)
			engine = &Sequence{Elems: []Pattern{engine, engines[k]}, Within: within}
			ref = &Sequence{Elems: []Pattern{ref, refs[k]}, Within: within}
		}
		return engine, ref, atoms
	}
	// nested returns atoms [lo, hi) as a sequence of two or three parts,
	// each an atom or, recursively, a nested sequence.
	var nested func(lo, hi int) (engine, ref Pattern)
	nested = func(lo, hi int) (engine, ref Pattern) {
		if hi-lo == 1 {
			return engines[lo], refs[lo]
		}
		cuts := []int{lo, lo + 1 + rng.Intn(hi-lo-1), hi}
		if hi-lo >= 3 && rng.Intn(2) == 0 {
			if c := lo + 1 + rng.Intn(hi-lo-1); c != cuts[1] {
				cuts = []int{lo, min(c, cuts[1]), max(c, cuts[1]), hi}
			}
		}
		within := window(hi - lo)
		e, r := &Sequence{Within: within}, &Sequence{Within: within}
		for i := 1; i < len(cuts); i++ {
			pe, pr := nested(cuts[i-1], cuts[i])
			e.Elems, r.Elems = append(e.Elems, pe), append(r.Elems, pr)
		}
		return e, r
	}
	engine, ref = nested(0, atoms)
	return engine, ref, atoms
}

// checkQueues is the NFA's internal invariant, checked after every Process:
// queues[0] is empty, every run in queues[s] awaits state s, deadlines are
// non-decreasing within each queue (what pruning only a prefix rests on),
// and ActiveRuns is the sum of the queue lengths. It reports whether a run
// is alive at exactly its deadline.
func checkQueues(n *NFA, now int64) (atDeadline bool, err error) {
	total := 0
	for s := range n.queues {
		q := n.queues[s].runs[n.queues[s].head:]
		if s == 0 && len(q) > 0 {
			return false, fmt.Errorf("%d runs queued at state 0", len(q))
		}
		for i, r := range q {
			if r.next != s {
				return false, fmt.Errorf("run awaiting state %d queued at state %d", r.next, s)
			}
			if i > 0 && r.deadline < q[i-1].deadline {
				return false, fmt.Errorf("state %d: deadline %d behind its elder's %d", s, r.deadline, q[i-1].deadline)
			}
			atDeadline = atDeadline || r.deadline == now
		}
		total += len(q)
	}
	if n.ActiveRuns() != total {
		return false, fmt.Errorf("ActiveRuns %d, queues hold %d", n.ActiveRuns(), total)
	}
	return atDeadline, nil
}

// reach is which behaviours one differential stream reached.
type reach struct {
	evicted, matched, atDeadline bool
	// closureStart: state 0 is a closure, so ProcessBatch asked it tuple
	// by tuple instead of down a column.
	closureStart bool
	// laterWindow: a run awaited a state inside a window entered after
	// state 0, whose deadline comes from the table's loop, not its add.
	laterWindow bool
}

// differential drives the NFA and the reference matcher with the same
// random pattern (learnerShaped) and stream, seeded by seed: equal and
// repeated timestamps, NaN fields, all four select/consume combinations, a
// run cap of 2–4 so eviction fires. The same stream, cut into batches at
// random boundaries (widths 1 to 150, so a batch can span more than one
// 64-tuple mask), goes through ProcessBatch on a third NFA, which must
// report the per-tuple NFA's matches at the same tuple indices and the same
// four counters. It reports a mismatch as an error, and which behaviours
// the stream reached.
func differential(seed int64) (reached reach, err error) {
	type policy struct {
		sel     SelectPolicy
		consume ConsumePolicy
	}
	policies := []policy{
		{SelectFirst, ConsumeAll}, {SelectFirst, ConsumeNone},
		{SelectAll, ConsumeAll}, {SelectAll, ConsumeNone},
	}
	rng := rand.New(rand.NewSource(seed))
	pattern, refPattern, atoms := learnerShaped(rng)
	pol := policies[rng.Intn(len(policies))]
	prog, err := CompileProgram(pattern, pol.sel, pol.consume)
	if err != nil {
		return reached, err
	}
	refProg, err := CompileProgram(refPattern, pol.sel, pol.consume)
	if err != nil {
		return reached, err
	}
	maxRuns := 2 + rng.Intn(3)
	if rng.Intn(3) == 0 {
		maxRuns = DefaultMaxRuns
	}
	nfa := prog.Instantiate()
	nfa.SetMaxRuns(maxRuns)
	ref := newRefNFA(refProg, maxRuns)
	reached.closureStart = prog.states[0].pred != nil

	// The stream walks the poses mostly in order, so runs advance, with
	// repeats (runs pile up at one state), noise values, and gaps of
	// 0 ms (equal timestamps), one frame or a window-breaking pause.
	n := 20 + rng.Intn(120)
	tuples := make([]stream.Tuple, n)
	ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	pose := 0
	for i := range tuples {
		switch g := rng.Intn(10); {
		case g < 2:
		case g < 9:
			ts = ts.Add(frame)
		default:
			ts = ts.Add(time.Duration(6+rng.Intn(18)) * frame)
		}
		v := float64(pose)
		switch c := rng.Intn(20); {
		case c < 8:
			pose = (pose + 1) % atoms
		case c < 12:
			v = float64(rng.Intn(atoms + 1)) // atoms itself is noise
		case c < 13:
			v = math.NaN()
		}
		side := []float64{0, 1, -2, 2, 3, math.NaN()}[rng.Intn(6)]
		tuples[i] = stream.Tuple{Ts: ts, Seq: uint64(i), Fields: []float64{v, side}}
	}

	var perTuple []BatchMatch
	active := make([]int, n) // ActiveRuns after each tuple
	for i, tup := range tuples {
		got, want := nfa.Process(tup), ref.Process(tup)
		if len(got) != len(want) {
			return reached, fmt.Errorf("tuple %d: %d matches, reference %d", i, len(got), len(want))
		}
		for m := range got {
			if !got[m].Start.Equal(want[m].Start) || !got[m].End.Equal(want[m].End) ||
				len(got[m].Seqs) != len(want[m].Tuples) {
				return reached, fmt.Errorf("tuple %d match %d: got %v–%v, reference %v–%v",
					i, m, got[m].Start, got[m].End, want[m].Start, want[m].End)
			}
			for k, seq := range got[m].Seqs {
				if seq != want[m].Tuples[k].Seq {
					return reached, fmt.Errorf("tuple %d match %d: atom %d matched seq %d, reference %d",
						i, m, k, seq, want[m].Tuples[k].Seq)
				}
			}
			perTuple = append(perTuple, BatchMatch{Match: got[m], At: i})
		}
		if active[i] = nfa.ActiveRuns(); active[i] != len(ref.runs) {
			return reached, fmt.Errorf("tuple %d: %d active runs, reference %d", i, active[i], len(ref.runs))
		}
		at, err := checkQueues(nfa, tup.Ts.UnixNano())
		if err != nil {
			return reached, fmt.Errorf("tuple %d: %w", i, err)
		}
		reached.atDeadline = reached.atDeadline || at
		for s, q := range nfa.queues {
			reached.laterWindow = reached.laterWindow || (q.head < len(q.runs) && len(prog.awaiting[s].later) > 0)
		}
	}
	processed, predCalls, matches, pruned := nfa.Stats()
	if processed != ref.processed || matches != ref.matches || pruned != ref.runsPruned {
		return reached, fmt.Errorf("processed/matches/pruned %d/%d/%d, reference %d/%d/%d",
			processed, matches, pruned, ref.processed, ref.matches, ref.runsPruned)
	}
	if predCalls > ref.predCalls {
		return reached, fmt.Errorf("%d predicate calls, reference %d", predCalls, ref.predCalls)
	}

	batched := prog.Instantiate()
	batched.SetMaxRuns(maxRuns)
	var inBatches []BatchMatch
	for off := 0; off < n; {
		end := min(off+1+rng.Intn(150), n)
		found := batched.ProcessBatch(tuples[off:end], nil)
		for _, m := range found {
			m.At += off
			inBatches = append(inBatches, m)
		}
		if batched.ActiveRuns() != active[end-1] {
			return reached, fmt.Errorf("batch ending at tuple %d: %d active runs, per tuple %d",
				end, batched.ActiveRuns(), active[end-1])
		}
		if _, err := checkQueues(batched, tuples[end-1].Ts.UnixNano()); err != nil {
			return reached, fmt.Errorf("batch ending at tuple %d: %w", end, err)
		}
		off = end
	}
	if len(inBatches) != len(perTuple) {
		return reached, fmt.Errorf("%d matches in batches, %d per tuple", len(inBatches), len(perTuple))
	}
	for m, want := range perTuple {
		got := inBatches[m]
		if got.At != want.At || !got.Start.Equal(want.Start) || !got.End.Equal(want.End) || !slices.Equal(got.Seqs, want.Seqs) {
			return reached, fmt.Errorf("match %d: batched %+v, per tuple %+v", m, got, want)
		}
	}
	bp, bc, bm, bpr := batched.Stats()
	if bp != processed || bc != predCalls || bm != matches || bpr != pruned {
		return reached, fmt.Errorf("batched processed/predCalls/matches/pruned %d/%d/%d/%d, per tuple %d/%d/%d/%d",
			bp, bc, bm, bpr, processed, predCalls, matches, pruned)
	}
	reached.evicted, reached.matched = ref.evicted > 0, matches > 0
	return reached, nil
}

// TestQuickNFAMatchesReference runs the differential over 2000 seeds and
// requires identical matches and counters, per tuple and in batches.
func TestQuickNFAMatchesReference(t *testing.T) {
	var evicting, matching, onDeadline, closures, later int
	f := func(seed int64) bool {
		reached, err := differential(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if reached.evicted {
			evicting++
		}
		if reached.matched {
			matching++
		}
		if reached.atDeadline {
			onDeadline++
		}
		if reached.closureStart {
			closures++
		}
		if reached.laterWindow {
			later++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The generator must actually reach the behaviours the differential is
	// for, or equality above says nothing.
	if evicting < 100 || matching < 100 || onDeadline < 100 || closures < 100 || later < 100 {
		t.Errorf("generator too tame: %d streams evicted a run, %d matched, %d held a run at its deadline, %d began with a closure, %d held a run inside a window entered after state 0",
			evicting, matching, onDeadline, closures, later)
	}
	if reached, err := differential(laterWindowSeed); err != nil || !reached.laterWindow {
		t.Errorf("seed %d: err %v, run inside a window entered after state 0 %t; the fuzz corpus wants one that is",
			laterWindowSeed, err, reached.laterWindow)
	}
}

// laterWindowSeed is a seed whose pattern has a window entered after state
// 0 and whose stream holds a run inside it.
const laterWindowSeed = 9

// FuzzNFAEqualsReference is the differential as a fuzz target: every seed
// the fuzzer finds must give the NFA, per tuple and in batches, and the
// reference the same matches, counters and queue invariants.
func FuzzNFAEqualsReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Add(int64(laterWindowSeed))
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := differential(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
