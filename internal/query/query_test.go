package query

import (
	"strings"
	"testing"
	"time"

	"gesturecep/internal/cep"
	"gesturecep/internal/stream"
)

// fig1Query is the exact swipe_right query from Fig. 1 of the paper.
const fig1Query = `
SELECT "swipe_right"
MATCHING (
  kinect(
    abs(rHand_x - torso_x - 0) < 50 and
    abs(rHand_y - torso_y - 150) < 50 and
    abs(rHand_z - torso_z + 120) < 50
  ) ->
  kinect(
    abs(rHand_x - torso_x - 400) < 50 and
    abs(rHand_y - torso_y - 150) < 50 and
    abs(rHand_z - torso_z + 420) < 50
  )
  within 1 seconds select first consume all
) ->
kinect(
  abs(rHand_x - torso_x - 800) < 50 and
  abs(rHand_y - torso_y - 150) < 50 and
  abs(rHand_z - torso_z + 120) < 50
)
within 1 seconds select first consume all;
`

func kinectSchema(t *testing.T) *stream.Schema {
	t.Helper()
	s, err := stream.NewSchema("torso_x", "torso_y", "torso_z", "rHand_x", "rHand_y", "rHand_z")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`SELECT "g" MATCHING kinect(a < 1.5 and b >= -2) -> k(x != 3) within 500 ms;`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokenKind{
		TokSelect, TokString, TokMatching, TokIdent, TokLParen, TokIdent, TokLT, TokNumber,
		TokAnd, TokIdent, TokGE, TokMinus, TokNumber, TokRParen, TokArrow, TokIdent, TokLParen,
		TokIdent, TokNE, TokNumber, TokRParen, TokWithin, TokNumber, TokIdent, TokSemicolon, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("-- a comment\nfoo -- trailing\n42")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Kind != TokIdent || toks[1].Kind != TokNumber {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex("1 2.5 .75 1e3 2.5E-2")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2.5, 0.75, 1000, 0.025}
	for i, w := range want {
		if toks[i].Num != w {
			t.Errorf("number %d = %v, want %v", i, toks[i].Num, w)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "@", "!", "\"line\nbreak\""} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) did not fail", src)
		}
	}
	// Errors carry positions.
	_, err := Lex("a\n  @")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 || se.Col != 3 {
		t.Errorf("error position = %d:%d", se.Line, se.Col)
	}
}

func TestParseFig1(t *testing.T) {
	q, err := Parse(fig1Query)
	if err != nil {
		t.Fatal(err)
	}
	if q.Output != "swipe_right" {
		t.Errorf("output = %q", q.Output)
	}
	if len(q.Pattern.Terms) != 2 {
		t.Fatalf("top-level terms = %d, want 2", len(q.Pattern.Terms))
	}
	if !q.Pattern.HasWithin || q.Pattern.Within != time.Second {
		t.Errorf("outer within = %v (has=%v)", q.Pattern.Within, q.Pattern.HasWithin)
	}
	if !q.Pattern.HasSelect || q.Pattern.Select != cep.SelectFirst {
		t.Error("outer select first missing")
	}
	if !q.Pattern.HasConsume || q.Pattern.Consume != cep.ConsumeAll {
		t.Error("outer consume all missing")
	}
	group := q.Pattern.Terms[0].Group
	if group == nil {
		t.Fatal("first term should be a group")
	}
	if len(group.Terms) != 2 || group.Terms[0].Atom == nil || group.Terms[1].Atom == nil {
		t.Fatal("group should contain two atoms")
	}
	if !group.HasWithin || group.Within != time.Second {
		t.Error("inner within missing")
	}
	atoms := q.Pattern.Atoms()
	if len(atoms) != 3 {
		t.Fatalf("atom count = %d, want 3", len(atoms))
	}
	for _, a := range atoms {
		if a.Source != "kinect" {
			t.Errorf("atom source = %q", a.Source)
		}
		ids := Idents(a.Pred)
		if len(ids) != 6 {
			t.Errorf("atom references %d attributes, want 6: %v", len(ids), ids)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,                                       // empty
		`MATCHING kinect(a < 1);`,                // missing select
		`SELECT "g" kinect(a < 1);`,              // missing matching
		`SELECT "g" MATCHING ;`,                  // no pattern
		`SELECT "g" MATCHING kinect(a < 1)`,      // missing semicolon
		`SELECT "g" MATCHING kinect(a < 1) -> ;`, // dangling arrow
		`SELECT "g" MATCHING kinect(a < 1) within 0 seconds;`,                  // zero within
		`SELECT "g" MATCHING kinect(a < 1) within 1 fortnights;`,               // bad unit
		`SELECT "g" MATCHING kinect(a < 1) select sometimes;`,                  // bad select policy
		`SELECT "g" MATCHING kinect(a < 1) consume some;`,                      // bad consume policy
		`SELECT "g" MATCHING kinect(a < 1) within 1 seconds within 2 seconds;`, // dup within
		`SELECT "g" MATCHING kinect(a < 1) select first select all;`,           // dup select
		`SELECT "g" MATCHING kinect(a < 1) consume all consume none;`,          // dup consume
		`SELECT "g" MATCHING (kinect(a < 1);`,                                  // unbalanced paren
		`SELECT "g" MATCHING kinect(a <);`,                                     // bad expression
		`SELECT "g" MATCHING kinect(f(;`,                                       // bad call
		`SELECT "g" MATCHING kinect(a < 1); extra`,                             // trailing input
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) did not fail", src)
		}
	}
}

func TestParseAll(t *testing.T) {
	src := `SELECT "a" MATCHING kinect(x < 1); SELECT "b" MATCHING kinect(x > 1);`
	qs, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0].Output != "a" || qs[1].Output != "b" {
		t.Errorf("ParseAll = %v", qs)
	}
	if _, err := ParseAll(""); err == nil {
		t.Error("empty input not rejected")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	q, err := Parse(`SELECT "g" MATCHING kinect(a + b * 2 < 10 or not c > 1 and d = 2);`)
	if err != nil {
		t.Fatal(err)
	}
	pred := q.Pattern.Terms[0].Atom.Pred
	// Top node must be OR (lowest precedence).
	or, ok := pred.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top node = %T %v", pred, pred)
	}
	// Left of or: (a + b*2) < 10 with * bound tighter than +.
	lt := or.L.(*Binary)
	if lt.Op != OpLT {
		t.Errorf("left of or = %v", lt.Op)
	}
	add := lt.L.(*Binary)
	if add.Op != OpAdd {
		t.Errorf("expected +, got %v", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != OpMul {
		t.Errorf("expected * on right of +, got %v", mul.Op)
	}
	// Right of or: AND of (not c>1) and (d = 2).
	and := or.R.(*Binary)
	if and.Op != OpAnd {
		t.Fatalf("right of or = %v", and.Op)
	}
	if not, ok := and.L.(*Unary); !ok || not.Op != OpNot {
		t.Errorf("expected not, got %v", and.L)
	}
}

func TestCompileFig1(t *testing.T) {
	env := NewEnv()
	env.Schemas["kinect"] = kinectSchema(t)
	q, err := Parse(fig1Query)
	if err != nil {
		t.Fatal(err)
	}
	c, err := CompileQuery(q, env)
	if err != nil {
		t.Fatal(err)
	}
	if c.Source != "kinect" || c.NumAtoms != 3 {
		t.Errorf("compiled source=%q atoms=%d", c.Source, c.NumAtoms)
	}
	if c.Select != cep.SelectFirst || c.Consume != cep.ConsumeAll {
		t.Error("policies not resolved")
	}

	nfa, err := cep.Compile(c.Pattern, c.Select, c.Consume)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the NFA through the three poses of Fig. 1 (torso at origin for
	// simplicity; fields: torso_x..z, rHand_x..z). Pose z-offsets are
	// -120, -420, -120 (the query uses "+ 120" for center -120).
	base := time.Date(2014, 3, 24, 10, 0, 0, 0, time.UTC)
	mk := func(ms int, hx, hy, hz float64) stream.Tuple {
		return stream.Tuple{Ts: base.Add(time.Duration(ms) * time.Millisecond),
			Fields: []float64{0, 0, 0, hx, hy, hz}}
	}
	inputs := []stream.Tuple{
		mk(0, 0, 150, -120),
		mk(200, 200, 150, -300), // intermediate, matches nothing
		mk(400, 400, 150, -420),
		mk(800, 800, 150, -120),
	}
	var matches int
	for _, in := range inputs {
		matches += len(nfa.Process(in))
	}
	if matches != 1 {
		t.Fatalf("Fig. 1 trace produced %d matches, want 1", matches)
	}
}

func TestCompileErrors(t *testing.T) {
	env := NewEnv()
	env.Schemas["kinect"] = kinectSchema(t)

	parseOK := func(src string) *Query {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	cases := []struct {
		name string
		q    *Query
		env  *Env
	}{
		{"nil query", nil, env},
		{"unknown source", parseOK(`SELECT "g" MATCHING nosuch(a < 1);`), env},
		{"unknown attribute", parseOK(`SELECT "g" MATCHING kinect(nope < 1);`), env},
		{"unknown function", parseOK(`SELECT "g" MATCHING kinect(frobnicate(torso_x) < 1);`), env},
		{"wrong arity", parseOK(`SELECT "g" MATCHING kinect(abs(torso_x, torso_y) < 1);`), env},
		{"mixed sources", parseOK(`SELECT "g" MATCHING kinect(torso_x < 1) -> other(torso_x < 1);`), env},
		{"nil env", parseOK(`SELECT "g" MATCHING kinect(torso_x < 1);`), nil},
	}
	for _, c := range cases {
		if _, err := CompileQuery(c.q, c.env); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestCompileScalarAndUDFs(t *testing.T) {
	schema := kinectSchema(t)
	udfs := BuiltinUDFs()
	q, err := Parse(`SELECT "g" MATCHING kinect(dist(torso_x, torso_y, torso_z, rHand_x, rHand_y, rHand_z) < 100);`)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := compileBool(q.Pattern.Terms[0].Atom.Pred, schema, udfs)
	if err != nil {
		t.Fatal(err)
	}
	near := stream.Tuple{Fields: []float64{0, 0, 0, 30, 40, 0}} // dist 50
	far := stream.Tuple{Fields: []float64{0, 0, 0, 300, 400, 0}}
	if !pred(near) {
		t.Error("near point should satisfy dist < 100")
	}
	if pred(far) {
		t.Error("far point should not satisfy dist < 100")
	}

	// min/max variadic + scalar compilation.
	e, err := Parse(`SELECT "g" MATCHING kinect(max(torso_x, rHand_x, 5) - min(torso_x, 0) > 0);`)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := CompileScalar(e.Pattern.Terms[0].Atom.Pred, schema, udfs)
	if err != nil {
		t.Fatal(err)
	}
	tup := stream.Tuple{Fields: []float64{-3, 0, 0, 7, 0, 0}}
	if sc(tup) != 1 { // max(-3,7,5)-min(-3,0)=7-(-3)=10 > 0 → true → 1
		t.Errorf("scalar = %v, want 1", sc(tup))
	}
}

func TestPrintRoundTrip(t *testing.T) {
	q, err := Parse(fig1Query)
	if err != nil {
		t.Fatal(err)
	}
	text := Print(q)
	q2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse of printed query failed: %v\n%s", err, text)
	}
	if Print(q2) != text {
		t.Errorf("print not idempotent:\n--- first ---\n%s--- second ---\n%s", text, Print(q2))
	}
	// Structure preserved.
	if q2.Output != q.Output || len(q2.Pattern.Atoms()) != len(q.Pattern.Atoms()) {
		t.Error("round trip changed structure")
	}
	if !q2.Pattern.HasWithin || q2.Pattern.Within != q.Pattern.Within {
		t.Error("round trip lost within")
	}
	// The printed form contains the paper's characteristic fragments.
	for _, frag := range []string{
		`SELECT "swipe_right"`, "within 1 seconds", "select first", "consume all", "->",
		"abs(rHand_x - torso_x - 400) < 50",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("printed query missing %q:\n%s", frag, text)
		}
	}
}

func TestPrintPrecedenceParens(t *testing.T) {
	srcs := []string{
		`SELECT "g" MATCHING kinect((a + b) * c < 1);`,
		`SELECT "g" MATCHING kinect(a - (b - c) > 0);`,
		`SELECT "g" MATCHING kinect((a < 1 or b < 2) and c < 3);`,
		`SELECT "g" MATCHING kinect(not (a < 1 and b < 2));`,
		`SELECT "g" MATCHING kinect(-(a + b) < 1);`,
		`SELECT "g" MATCHING kinect(a / (b * c) != 0);`,
	}
	schema, _ := stream.NewSchema("a", "b", "c")
	env := NewEnv()
	env.Schemas["kinect"] = schema
	for _, src := range srcs {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		text := Print(q)
		q2, err := Parse(text)
		if err != nil {
			t.Fatalf("re-parse failed for %s:\n%s\n%v", src, text, err)
		}
		// Semantics must be preserved: compile both and compare on samples.
		p1, err := compileBool(q.Pattern.Terms[0].Atom.Pred, schema, env.UDFs)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := compileBool(q2.Pattern.Terms[0].Atom.Pred, schema, env.UDFs)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range [][]float64{{0, 0, 0}, {1, 2, 3}, {-1, 0.5, 2}, {10, -10, 0.1}} {
			tup := stream.Tuple{Fields: f}
			if p1(tup) != p2(tup) {
				t.Errorf("%s: round trip changed semantics on %v\nprinted:\n%s", src, f, text)
			}
		}
	}
}

func TestTokenStrings(t *testing.T) {
	if TokArrow.String() != "'->'" {
		t.Errorf("TokArrow = %s", TokArrow)
	}
	if TokenKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
	tok := Token{Kind: TokIdent, Text: "abc"}
	if !strings.Contains(tok.String(), "abc") {
		t.Errorf("token string = %s", tok)
	}
}

func TestDurationUnits(t *testing.T) {
	cases := []struct {
		src  string
		want time.Duration
	}{
		{`SELECT "g" MATCHING kinect(a < 1) within 2 seconds;`, 2 * time.Second},
		{`SELECT "g" MATCHING kinect(a < 1) within 500 ms;`, 500 * time.Millisecond},
		{`SELECT "g" MATCHING kinect(a < 1) within 1 minutes;`, time.Minute},
		{`SELECT "g" MATCHING kinect(a < 1) within 0.5 seconds;`, 500 * time.Millisecond},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if q.Pattern.Within != c.want {
			t.Errorf("%s: within = %v, want %v", c.src, q.Pattern.Within, c.want)
		}
	}
}

func TestParseAndPrintMeasures(t *testing.T) {
	src := `SELECT "push", rHand_z, dist(torso_x, torso_y, torso_z, rHand_x, rHand_y, rHand_z) MATCHING kinect(rHand_z < 1);`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Measures) != 2 {
		t.Fatalf("measures = %d", len(q.Measures))
	}
	env := NewEnv()
	env.Schemas["kinect"] = kinectSchema(t)
	c, err := CompileQuery(q, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Measures) != 2 {
		t.Fatalf("compiled measures = %d", len(c.Measures))
	}
	tup := stream.Tuple{Fields: []float64{0, 0, 0, 30, 40, 0}}
	if got := c.Measures[1](tup); got != 50 {
		t.Errorf("dist measure = %v", got)
	}
	// Round trip preserves measures.
	text := Print(q)
	if !strings.Contains(text, `"push", rHand_z, dist(`) {
		t.Errorf("printed measures missing:\n%s", text)
	}
	q2, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if len(q2.Measures) != 2 {
		t.Error("round trip lost measures")
	}
	// A measure referencing an unknown attribute fails compilation.
	bad, err := Parse(`SELECT "g", nosuch MATCHING kinect(torso_x < 1);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileQuery(bad, env); err == nil {
		t.Error("unknown measure attribute accepted")
	}
}

// compileBool compiles a predicate through the general evaluator: true when
// the result is non-zero, as in a closure atom.
func compileBool(e Expr, schema *stream.Schema, udfs map[string]UDF) (func(stream.Tuple) bool, error) {
	ev, err := CompileScalar(e, schema, udfs)
	if err != nil {
		return nil, err
	}
	return func(t stream.Tuple) bool { return ev(t) != 0 }, nil
}
