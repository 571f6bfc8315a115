package cep

import (
	"reflect"
	"testing"
	"time"

	"gesturecep/internal/stream"
)

// fieldAbove returns a predicate true when field 0 is in [lo, hi).
func fieldIn(lo, hi float64) func(stream.Tuple) bool {
	return func(t stream.Tuple) bool { return t.Fields[0] >= lo && t.Fields[0] < hi }
}

func tup(ms int, v float64) stream.Tuple {
	base := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	return stream.Tuple{Ts: base.Add(time.Duration(ms) * time.Millisecond), Fields: []float64{v}}
}

// threeStep builds the canonical 3-pose pattern: values near 0, then near
// 400, then near 800 (the Fig. 1 swipe_right shape in one dimension).
func threeStep(within time.Duration) Pattern {
	return SeqWithin(within,
		NewAtom("pose0", fieldIn(-50, 50)),
		NewAtom("pose1", fieldIn(350, 450)),
		NewAtom("pose2", fieldIn(750, 850)),
	)
}

func TestCompileValidation(t *testing.T) {
	if _, err := Compile(nil, SelectFirst, ConsumeAll); err == nil {
		t.Error("nil pattern accepted")
	}
	if _, err := Compile(&Atom{Label: "x"}, SelectFirst, ConsumeAll); err == nil {
		t.Error("nil predicate accepted")
	}
	both := &Atom{Label: "x", Ranges: []Range{{Field: 0, HalfWidth: 1}}, Pred: fieldIn(0, 1)}
	if _, err := Compile(both, SelectFirst, ConsumeAll); err == nil {
		t.Error("atom with both range rows and a predicate accepted")
	}
	if _, err := Compile(Seq(), SelectFirst, ConsumeAll); err == nil {
		t.Error("empty sequence accepted")
	}
	if _, err := Compile(&Sequence{Elems: []Pattern{nil}}, SelectFirst, ConsumeAll); err == nil {
		t.Error("nil element accepted")
	}
	if _, err := Compile(&Sequence{Elems: []Pattern{NewAtom("a", fieldIn(0, 1))}, Within: -time.Second}, SelectFirst, ConsumeAll); err == nil {
		t.Error("negative within accepted")
	}
	n, err := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	if err != nil {
		t.Fatal(err)
	}
	if n.Len() != 3 {
		t.Errorf("Len = %d, want 3", n.Len())
	}
}

func TestSimpleSequenceMatch(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	inputs := []stream.Tuple{
		tup(0, 0),     // pose0
		tup(33, 100),  // ignored (skip-till-next-match)
		tup(66, 400),  // pose1
		tup(99, 600),  // ignored
		tup(133, 800), // pose2 -> match
	}
	// Process borrows its tuple: every tuple arrives in the same field array,
	// overwritten for the next, and the match still names the right ones.
	lent := make([]float64, 1)
	var matches []Match
	for i, in := range inputs {
		lent[0] = in.Fields[0]
		matches = append(matches, n.Process(stream.Tuple{Ts: in.Ts, Seq: uint64(10 + i), Fields: lent})...)
	}
	if len(matches) != 1 {
		t.Fatalf("got %d matches, want 1", len(matches))
	}
	m := matches[0]
	if m.Duration() != 133*time.Millisecond {
		t.Errorf("match duration = %v", m.Duration())
	}
	if !m.Start.Equal(inputs[0].Ts) || !m.End.Equal(inputs[4].Ts) {
		t.Errorf("match spans %v–%v, want %v–%v", m.Start, m.End, inputs[0].Ts, inputs[4].Ts)
	}
	if want := []uint64{10, 12, 14}; !reflect.DeepEqual(m.Seqs, want) {
		t.Errorf("match seqs = %v, want %v", m.Seqs, want)
	}
}

func TestNoMatchOutOfOrder(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	// Poses in the wrong order never complete the pattern (but the 0 seen
	// later starts a new partial run).
	for _, in := range []stream.Tuple{tup(0, 800), tup(33, 400), tup(66, 0)} {
		if got := n.Process(in); len(got) != 0 {
			t.Fatalf("unexpected match on %v", in.Fields)
		}
	}
	if n.ActiveRuns() == 0 {
		t.Error("expected a partial run from the trailing pose0")
	}
}

func TestWithinExpires(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	inputs := []stream.Tuple{
		tup(0, 0),
		tup(500, 400),
		tup(1500, 800), // 1.5s after start: window violated
	}
	var total int
	for _, in := range inputs {
		total += len(n.Process(in))
	}
	if total != 0 {
		t.Fatalf("match fired despite within violation")
	}
	// A fresh fast repetition still matches (expired run was pruned).
	inputs2 := []stream.Tuple{tup(2000, 0), tup(2200, 400), tup(2400, 800)}
	for i, in := range inputs2 {
		got := n.Process(in)
		if i == 2 && len(got) != 1 {
			t.Fatalf("fresh repetition did not match: %d", len(got))
		}
	}
}

func TestWithinBoundaryInclusive(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	// Last pose exactly at the deadline is still within.
	inputs := []stream.Tuple{tup(0, 0), tup(500, 400), tup(1000, 800)}
	var total int
	for _, in := range inputs {
		total += len(n.Process(in))
	}
	if total != 1 {
		t.Fatalf("boundary match count = %d, want 1", total)
	}
}

func TestNestedWithin(t *testing.T) {
	// (pose0 -> pose1 within 300ms) -> pose2 within 2s — like Fig. 1's
	// nested structure.
	p := SeqWithin(2*time.Second,
		SeqWithin(300*time.Millisecond,
			NewAtom("pose0", fieldIn(-50, 50)),
			NewAtom("pose1", fieldIn(350, 450)),
		),
		NewAtom("pose2", fieldIn(750, 850)),
	)
	n, err := Compile(p, SelectFirst, ConsumeAll)
	if err != nil {
		t.Fatal(err)
	}
	// Inner window violated: pose0 -> pose1 takes 400ms.
	for _, in := range []stream.Tuple{tup(0, 0), tup(400, 400), tup(500, 800)} {
		if got := n.Process(in); len(got) != 0 {
			t.Fatal("matched despite inner within violation")
		}
	}
	n.Reset()
	// Inner window satisfied, outer satisfied.
	var total int
	for _, in := range []stream.Tuple{tup(0, 0), tup(200, 400), tup(1800, 800)} {
		total += len(n.Process(in))
	}
	if total != 1 {
		t.Fatalf("nested match count = %d, want 1", total)
	}
	n.Reset()
	// Inner satisfied but outer violated (pose2 at 2.5s).
	total = 0
	for _, in := range []stream.Tuple{tup(0, 0), tup(200, 400), tup(2500, 800)} {
		total += len(n.Process(in))
	}
	if total != 0 {
		t.Fatalf("outer within violation not enforced")
	}
}

func TestConsumeAllSuppressesOverlap(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	// Two interleaved instances: 0a 0b 400a 400b 800a 800b. With consume
	// all, the completion of instance a consumes instance b's partial run.
	inputs := []stream.Tuple{
		tup(0, 0), tup(50, 10), tup(100, 400), tup(150, 410), tup(200, 800), tup(250, 810),
	}
	var total int
	for _, in := range inputs {
		total += len(n.Process(in))
	}
	if total != 1 {
		t.Fatalf("consume all: got %d matches, want 1", total)
	}
}

func TestConsumeNoneAllowsReuse(t *testing.T) {
	// Staggered instances: run A completes at t=150 while run B is still at
	// pose1; B completes later at t=250. With consume none both survive;
	// with consume all (next test variant) A's completion kills B.
	inputs := []stream.Tuple{
		tup(0, 0),     // A: pose0
		tup(50, 400),  // A: pose1
		tup(100, 10),  // B: pose0
		tup(150, 800), // A completes; B still waits for pose1
		tup(200, 410), // B: pose1
		tup(250, 810), // B completes (only under consume none)
	}
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeNone)
	var total int
	for _, in := range inputs {
		total += len(n.Process(in))
	}
	if total != 2 {
		t.Fatalf("consume none: got %d matches, want 2", total)
	}

	n2, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	total = 0
	for _, in := range inputs {
		total += len(n2.Process(in))
	}
	if total != 1 {
		t.Fatalf("consume all on staggered input: got %d matches, want 1", total)
	}
}

func TestSelectAllEmitsAllCompletions(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectAll, ConsumeNone)
	// Two partial runs complete on the same final tuple.
	inputs := []stream.Tuple{
		tup(0, 0), tup(50, 10), tup(100, 400), tup(200, 800),
	}
	var total int
	for _, in := range inputs {
		total += len(n.Process(in))
	}
	if total != 2 {
		t.Fatalf("select all: got %d matches, want 2", total)
	}
}

func TestSelectFirstPicksEarliestRun(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	inputs := []stream.Tuple{
		tup(0, 0), tup(50, 10), tup(100, 400), tup(200, 800),
	}
	var matches []Match
	for _, in := range inputs {
		matches = append(matches, n.Process(in)...)
	}
	if len(matches) != 1 {
		t.Fatalf("got %d matches", len(matches))
	}
	if !matches[0].Start.Equal(tup(0, 0).Ts) {
		t.Errorf("selected run started at %v, want the earliest", matches[0].Start)
	}
}

func TestSingleAtomPattern(t *testing.T) {
	n, err := Compile(NewAtom("only", fieldIn(0, 1)), SelectFirst, ConsumeAll)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Process(tup(0, 0.5)); len(got) != 1 {
		t.Fatalf("single-atom match count = %d", len(got))
	}
	if got := n.Process(tup(33, 5)); len(got) != 0 {
		t.Fatal("single-atom matched wrong tuple")
	}
	if n.ActiveRuns() != 0 {
		t.Error("single-atom pattern leaked runs")
	}
}

// TestProcessMatchAllocs: a tuple that completes a match costs Process two
// allocations, the []Match it returns and the match's Seqs; a tuple that
// completes none costs nothing.
func TestProcessMatchAllocs(t *testing.T) {
	n, err := Compile(NewAtom("only", fieldIn(0, 1)), SelectFirst, ConsumeAll)
	if err != nil {
		t.Fatal(err)
	}
	hit, miss := tup(0, 0.5), tup(0, 5)
	if got := testing.AllocsPerRun(100, func() {
		if len(n.Process(hit)) != 1 {
			t.Fatal("no match")
		}
	}); got != 2 {
		t.Errorf("matching tuple: %v allocs, want 2", got)
	}
	if got := testing.AllocsPerRun(100, func() { n.Process(miss) }); got != 0 {
		t.Errorf("non-matching tuple: %v allocs, want 0", got)
	}
}

func TestMaxRunsEviction(t *testing.T) {
	n, _ := Compile(threeStep(time.Hour), SelectFirst, ConsumeNone)
	n.SetMaxRuns(4)
	for i := 0; i < 100; i++ {
		n.Process(tup(i*10, 0)) // each starts a new run
	}
	if n.ActiveRuns() > 4 {
		t.Errorf("active runs = %d exceeds cap", n.ActiveRuns())
	}
	n.SetMaxRuns(0) // ignored
	if n.maxRuns != 4 {
		t.Error("SetMaxRuns(0) should be ignored")
	}
}

// TestMaxRunsCountsLiveRunsOnly fills the cap with runs that all complete on
// one tuple which also starts a run: the completed runs have left the active
// set, so nothing is evicted and nothing counted as pruned. Then it
// overfills the cap with live runs and checks the oldest live one goes.
func TestMaxRunsCountsLiveRunsOnly(t *testing.T) {
	in := func(vals ...float64) func(stream.Tuple) bool {
		return func(t stream.Tuple) bool {
			for _, v := range vals {
				if t.Fields[0] == v {
					return true
				}
			}
			return false
		}
	}
	n, _ := Compile(Seq(NewAtom("a", in(0, 5)), NewAtom("b", in(5))), SelectAll, ConsumeNone)
	n.SetMaxRuns(3)
	for i := 0; i < 3; i++ {
		n.Process(tup(i*10, 0))
	}
	if got := n.Process(tup(30, 5)); len(got) != 3 {
		t.Fatalf("%d matches, want the 3 capped runs to complete", len(got))
	}
	if _, _, _, pruned := n.Stats(); pruned != 0 || n.ActiveRuns() != 1 {
		t.Fatalf("after completing a full cap: pruned %d, active %d; want 0 and the 1 fresh run", pruned, n.ActiveRuns())
	}

	// The run started at 30 ms is now the oldest; three more push it out.
	for i := 4; i < 7; i++ {
		n.Process(tup(i*10, 0))
	}
	if _, _, _, pruned := n.Stats(); pruned != 1 || n.ActiveRuns() != 3 {
		t.Fatalf("after overfilling: pruned %d, active %d; want 1 and 3", pruned, n.ActiveRuns())
	}
	got := n.Process(tup(70, 5))
	if len(got) != 3 {
		t.Fatalf("%d matches, want 3", len(got))
	}
	for i, m := range got {
		if want := tup((4+i)*10, 0).Ts; !m.Start.Equal(want) {
			t.Errorf("match %d starts at %v, want %v: the oldest live run was not the one evicted", i, m.Start, want)
		}
	}
}

// TestPredicateOncePerState: runs piled up at one state share a single
// predicate evaluation per tuple, so calls are bounded by the pattern's
// length however many runs are active.
func TestPredicateOncePerState(t *testing.T) {
	n, _ := Compile(threeStep(time.Hour), SelectFirst, ConsumeNone)
	for i := 0; i < 50; i++ {
		n.Process(tup(i*10, 0)) // 50 runs waiting at pose1
	}
	n.Process(tup(500, 400)) // all move to pose2
	_, before, _, _ := n.Stats()
	n.Process(tup(510, 100))
	_, after, _, _ := n.Stats()
	if n.ActiveRuns() != 50 {
		t.Fatalf("active runs = %d, want 50", n.ActiveRuns())
	}
	if calls := after - before; calls != 2 {
		t.Errorf("%d predicate calls for 50 runs at one state, want 2 (pose2 once, pose0 once)", calls)
	}
}

func TestStatsAndReset(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	for _, in := range []stream.Tuple{tup(0, 0), tup(50, 400), tup(100, 800)} {
		n.Process(in)
	}
	processed, predCalls, matches, _ := n.Stats()
	if processed != 3 {
		t.Errorf("processed = %d", processed)
	}
	if matches != 1 {
		t.Errorf("matches = %d", matches)
	}
	if predCalls == 0 {
		t.Error("predCalls not counted")
	}
	n.Reset()
	processed, _, matches, _ = n.Stats()
	if processed != 0 || matches != 0 || n.ActiveRuns() != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestRepeatedDetections(t *testing.T) {
	n, _ := Compile(threeStep(time.Second), SelectFirst, ConsumeAll)
	var total int
	// Perform the gesture three times in a row with pauses.
	for rep := 0; rep < 3; rep++ {
		base := rep * 2000
		for _, in := range []stream.Tuple{tup(base, 0), tup(base+100, 400), tup(base+200, 800)} {
			total += len(n.Process(in))
		}
	}
	if total != 3 {
		t.Fatalf("repeated detections = %d, want 3", total)
	}
}

func TestPolicyStrings(t *testing.T) {
	if SelectFirst.String() != "first" || SelectAll.String() != "all" {
		t.Error("SelectPolicy strings wrong")
	}
	if ConsumeAll.String() != "all" || ConsumeNone.String() != "none" {
		t.Error("ConsumePolicy strings wrong")
	}
	if SelectPolicy(9).String() == "" || ConsumePolicy(9).String() == "" {
		t.Error("unknown policies should still render")
	}
}
