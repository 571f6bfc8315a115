package query_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"gesturecep/internal/cep"
	"gesturecep/internal/e2e"
	"gesturecep/internal/kinect"
	"gesturecep/internal/query"
	"gesturecep/internal/stream"
)

// TestLearnedPredicatesAreRangeTables: every pose predicate of the eight
// demo gestures, learned as cmd/gestured learns them, is the shape the
// range-row recogniser takes — one row per constrained coordinate.
func TestLearnedPredicatesAreRangeTables(t *testing.T) {
	udfs := query.BuiltinUDFs()
	for _, text := range e2e.DemoQueries(t) {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		name := q.Output
		atoms := q.Pattern.Atoms()
		if len(atoms) < 2 {
			t.Fatalf("%s: %d poses", name, len(atoms))
		}
		for i, a := range atoms {
			atom, err := query.CompileAtom(name, a.Pred, kinect.Schema(), udfs)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(query.Idents(a.Pred)); atom.Pred != nil || len(atom.Ranges) != want {
				t.Errorf("%s pose %d: %d range rows (closure %t), want one per coordinate (%d)",
					name, i, len(atom.Ranges), atom.Pred != nil, want)
			}
		}
	}
}

// TestRangeTableRecogniserAndFallback pins which predicate shapes compile to
// range rows and checks that, rows or closure, the atom CompileAtom makes
// agrees in the NFA with the general expression evaluator on random tuples
// that include NaN, ±Inf and values exactly on a range's edge.
func TestRangeTableRecogniserAndFallback(t *testing.T) {
	schema := stream.MustSchema("a", "b", "c")
	builtin := query.BuiltinUDFs()
	shadowed := query.BuiltinUDFs()
	shadowed["abs"] = query.UDF{Name: "abs", Arity: 1, Fn: func(a []float64) float64 { return a[0] }}

	cases := []struct {
		name string
		pred string
		udfs map[string]query.UDF
		rows int // 0: falls back to the closure compiler
	}{
		{"learner shape", "abs(a - 1.5) < 2 and abs(b + 3) < 1 and abs(c - 0) < 4.5", builtin, 3},
		{"single term", "abs(a - 1) < 2", builtin, 1},
		{"single shifted-up term", "abs(b + 1) < 2", builtin, 1},
		{"right-nested conjunction", "abs(a - 1) < 2 and (abs(b - 1) < 2 and abs(c + 1) < 2)", builtin, 3},
		{"repeated attribute", "abs(a - 1) < 2 and abs(a - 2) < 2", builtin, 2},
		{"attribute minus attribute", "abs(a - b) < 5", builtin, 0},
		{"disjunction", "a < 3 or abs(b - 1) < 2", builtin, 0},
		{"negation", "not (abs(a - 1) < 2)", builtin, 0},
		{"other function", "abs(a - 1) < 2 and max(a, b) < 3", builtin, 0},
		{"non-strict bound", "abs(a - 1) <= 2", builtin, 0},
		{"mixed with a plain comparison", "abs(a - 1) < 2 and a < 3", builtin, 0},
		{"literal minus attribute", "abs(1 - a) < 2", builtin, 0},
		{"bound on the left", "2 > abs(a - 1)", builtin, 0},
		{"computed bound", "abs(a - 1) < 1 + 1", builtin, 0},
		{"user function named abs", "abs(a - 1) < 2", shadowed, 0},
	}
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1, 2, 3, 3.5, -2, -3, -4, 1e308, -1e308}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := query.Parse(`SELECT "g" MATCHING s(` + tc.pred + `);`)
			if err != nil {
				t.Fatal(err)
			}
			e := q.Pattern.Atoms()[0].Pred
			atom, err := query.CompileAtom("g", e, schema, tc.udfs)
			if err != nil {
				t.Fatal(err)
			}
			if (atom.Pred == nil) != (tc.rows > 0) || len(atom.Ranges) != tc.rows {
				t.Fatalf("%d range rows (closure %t), want %d rows", len(atom.Ranges), atom.Pred != nil, tc.rows)
			}
			nfa, err := cep.Compile(atom, cep.SelectFirst, cep.ConsumeNone)
			if err != nil {
				t.Fatal(err)
			}
			pred := func(tup stream.Tuple) bool { return len(nfa.Process(tup)) == 1 }
			general, err := query.CompileScalar(e, schema, tc.udfs)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			var held int
			for i := 0; i < 1000; i++ {
				tup := stream.Tuple{Ts: time.Unix(0, 0), Fields: make([]float64, schema.Len())}
				for f := range tup.Fields {
					if rng.Intn(4) == 0 {
						tup.Fields[f] = edges[rng.Intn(len(edges))]
					} else {
						tup.Fields[f] = rng.NormFloat64() * 3
					}
				}
				got, want := pred(tup), general(tup) != 0
				if got != want {
					t.Fatalf("%v: predicate %v, general evaluator %v", tup.Fields, got, want)
				}
				if got {
					held++
				}
			}
			if held == 0 || held == 1000 {
				t.Errorf("predicate held on %d of 1000 tuples; the comparison is vacuous", held)
			}
		})
	}

	// An unknown attribute is not the recogniser's to report: the general
	// compiler names it.
	q, err := query.Parse(`SELECT "g" MATCHING s(abs(zz - 1) < 2);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := query.CompileAtom("g", q.Pattern.Atoms()[0].Pred, schema, builtin); err == nil {
		t.Error("unknown attribute compiled")
	}
}
