package cep

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gesturecep/internal/stream"
)

// rowMaskReach is which cases one rowMask stream reached.
type rowMaskReach struct {
	// passed: some tuple satisfied every row; killed: some tuple passed the
	// first row and failed a later one, the bit only a later row clears.
	passed, killed bool
}

// rowMaskAgrees builds a random state of 1–4 range rows over 1–3 fields
// (rows share a field or not) and a chunk of 1–64 tuples whose values sit on
// the rows' edges: Center ± HalfWidth exactly and one ulp either side, the
// center, NaN, ±Inf and ±0, with NaN, infinite and zero bounds now and then.
// Bit k of rowMask must equal holds on tuple k, and no bit past the chunk
// may be set.
func rowMaskAgrees(seed int64) (reached rowMaskReach, err error) {
	rng := rand.New(rand.NewSource(seed))
	pick := func(vs ...float64) float64 { return vs[rng.Intn(len(vs))] }
	fields := 1 + rng.Intn(3)
	rows := make([]Range, 1+rng.Intn(4))
	for i := range rows {
		rows[i] = Range{Field: rng.Intn(fields), Center: rng.NormFloat64() * 100, HalfWidth: rng.Float64() * 50}
		switch rng.Intn(12) {
		case 0:
			rows[i].Center = pick(0, math.Copysign(0, -1), math.Inf(1), math.NaN(), 1e300)
		case 1:
			rows[i].HalfWidth = pick(0, math.SmallestNonzeroFloat64, math.Inf(1), math.NaN(), 1e300)
		}
	}
	st := state{rows: rows}
	near := func(r Range) float64 {
		lo, hi := r.Center-r.HalfWidth, r.Center+r.HalfWidth
		switch c := rng.Intn(12); {
		case c < 2:
			return pick(lo, hi)
		case c < 4:
			return math.Nextafter(pick(lo, hi), math.Inf(1))
		case c < 6:
			return math.Nextafter(pick(lo, hi), math.Inf(-1))
		case c < 9:
			return r.Center + (2*rng.Float64()-1)*r.HalfWidth
		case c < 10:
			return r.Center
		default:
			return pick(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1))
		}
	}
	ts := make([]stream.Tuple, 1+rng.Intn(64))
	for k := range ts {
		fs := make([]float64, fields)
		for f := range fs {
			fs[f] = rng.NormFloat64() * 100
			// Mostly near a row on this field, so later rows see survivors.
			for _, i := range rng.Perm(len(rows)) {
				if rows[i].Field == f && rng.Intn(8) != 0 {
					fs[f] = near(rows[i])
					break
				}
			}
		}
		ts[k] = stream.Tuple{Seq: uint64(k), Fields: fs}
	}
	m := st.rowMask(ts)
	if len(ts) < 64 && m>>len(ts) != 0 {
		return reached, fmt.Errorf("%d tuples, mask %#x has bits past them", len(ts), m)
	}
	first := state{rows: rows[:1]}
	for k := range ts {
		got, want := m>>k&1 == 1, st.holds(&ts[k])
		if got != want {
			return reached, fmt.Errorf("tuple %d %v under rows %+v: rowMask %t, holds %t", k, ts[k].Fields, rows, got, want)
		}
		reached.passed = reached.passed || want
		reached.killed = reached.killed || (!want && first.holds(&ts[k]))
	}
	return reached, nil
}

// TestQuickRowMaskEqualsHolds runs rowMaskAgrees over 3000 seeds, and
// requires the generator to reach both a full pass and a later-row kill.
func TestQuickRowMaskEqualsHolds(t *testing.T) {
	var passed, killed int
	f := func(seed int64) bool {
		reached, err := rowMaskAgrees(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if reached.passed {
			passed++
		}
		if reached.killed {
			killed++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
	if passed < 300 || killed < 300 {
		t.Errorf("generator too tame: %d chunks had a tuple pass, %d had one pass the first row only", passed, killed)
	}
}

// FuzzRowMaskEqualsHolds is rowMaskAgrees as a fuzz target.
func FuzzRowMaskEqualsHolds(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := rowMaskAgrees(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}
