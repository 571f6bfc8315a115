package cep

import (
	"fmt"
	"math/rand"
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

// learnerShaped builds a random pattern of the shape learn.GenerateQuery
// emits: a left-nested sequence ((p0 -> p1 within d1) -> p2 within d2) …
// of 2–6 atoms, each level's window covering the poses so far. Pose k
// accepts tuples whose field 0 is k and, like overlapping pose windows, now
// and then a neighbour's value too — so one tuple can complete a run and
// start the next. Most levels carry a window, a few do not, so inner-only
// and outer-only constraints both occur. Windows are whole frames, like the
// stream's gaps, so a tuple landing exactly on a deadline (which must still
// match) is common.
func learnerShaped(rng *rand.Rand) (Pattern, int) {
	atoms := 2 + rng.Intn(5)
	pose := func(k int) Pattern {
		accepts := uint(1) << k
		for v := 0; v < atoms; v++ {
			if rng.Intn(5) == 0 {
				accepts |= 1 << v
			}
		}
		return NewAtom(fmt.Sprintf("pose%d", k), func(t stream.Tuple) bool { return accepts>>uint(t.Fields[0])&1 == 1 })
	}
	var p Pattern = pose(0)
	var cumulative time.Duration
	for k := 1; k < atoms; k++ {
		cumulative += time.Duration(3+rng.Intn(9)) * frame
		within := cumulative
		if rng.Intn(5) == 0 {
			within = 0 // this level is unconstrained
		}
		p = &Sequence{Elems: []Pattern{p, pose(k)}, Within: within}
	}
	return p, atoms
}

// TestQuickNFAMatchesReference drives the NFA and the reference matcher
// with the same random learner-shaped pattern and stream — equal and
// repeated timestamps, all four select/consume combinations, a run cap of
// 2–4 so eviction fires — and requires identical matches and counters.
func TestQuickNFAMatchesReference(t *testing.T) {
	type policy struct {
		sel     SelectPolicy
		consume ConsumePolicy
	}
	policies := []policy{
		{SelectFirst, ConsumeAll}, {SelectFirst, ConsumeNone},
		{SelectAll, ConsumeAll}, {SelectAll, ConsumeNone},
	}
	var evicting, matching int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pattern, atoms := learnerShaped(rng)
		pol := policies[rng.Intn(len(policies))]
		prog, err := CompileProgram(pattern, pol.sel, pol.consume)
		if err != nil {
			t.Log(err)
			return false
		}
		maxRuns := 2 + rng.Intn(3)
		if rng.Intn(3) == 0 {
			maxRuns = DefaultMaxRuns
		}
		nfa := prog.Instantiate()
		nfa.SetMaxRuns(maxRuns)
		ref := newRefNFA(prog, maxRuns)

		// The stream walks the poses mostly in order, so runs advance, with
		// repeats (runs pile up at one state), noise values, and gaps of
		// 0 ms (equal timestamps), one frame or a window-breaking pause.
		n := 20 + rng.Intn(120)
		ts := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
		pose := 0
		for i := 0; i < n; i++ {
			switch g := rng.Intn(10); {
			case g < 2:
			case g < 9:
				ts = ts.Add(frame)
			default:
				ts = ts.Add(time.Duration(6+rng.Intn(18)) * frame)
			}
			v := float64(pose)
			switch c := rng.Intn(10); {
			case c < 4:
				pose = (pose + 1) % atoms
			case c < 6:
				v = float64(rng.Intn(atoms + 1)) // atoms itself is noise
			}
			tup := stream.Tuple{Ts: ts, Seq: uint64(i), Fields: []float64{v}}
			got, want := nfa.Process(tup), ref.Process(tup)
			if len(got) != len(want) {
				t.Logf("seed %d tuple %d: %d matches, reference %d", seed, i, len(got), len(want))
				return false
			}
			for m := range got {
				if !got[m].Start.Equal(want[m].Start) || !got[m].End.Equal(want[m].End) ||
					len(got[m].Seqs) != len(want[m].Tuples) {
					t.Logf("seed %d tuple %d match %d: got %v–%v, reference %v–%v",
						seed, i, m, got[m].Start, got[m].End, want[m].Start, want[m].End)
					return false
				}
				for k, seq := range got[m].Seqs {
					if seq != want[m].Tuples[k].Seq {
						t.Logf("seed %d tuple %d match %d: atom %d matched seq %d, reference %d",
							seed, i, m, k, seq, want[m].Tuples[k].Seq)
						return false
					}
				}
			}
			if nfa.ActiveRuns() != len(ref.runs) {
				t.Logf("seed %d tuple %d: %d active runs, reference %d", seed, i, nfa.ActiveRuns(), len(ref.runs))
				return false
			}
		}
		processed, predCalls, matches, pruned := nfa.Stats()
		if processed != ref.processed || matches != ref.matches || pruned != ref.runsPruned {
			t.Logf("seed %d: processed/matches/pruned %d/%d/%d, reference %d/%d/%d",
				seed, processed, matches, pruned, ref.processed, ref.matches, ref.runsPruned)
			return false
		}
		if predCalls > ref.predCalls {
			t.Logf("seed %d: %d predicate calls, reference %d", seed, predCalls, ref.predCalls)
			return false
		}
		if ref.evicted > 0 {
			evicting++
		}
		if matches > 0 {
			matching++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// The generator must actually reach the behaviours the differential is
	// for, or equality above says nothing.
	if evicting < 100 || matching < 100 {
		t.Errorf("generator too tame: %d streams evicted a run, %d matched", evicting, matching)
	}
}
