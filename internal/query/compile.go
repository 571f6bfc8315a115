package query

import (
	"fmt"
	"math"
	"sync"

	"gesturecep/internal/cep"
	"gesturecep/internal/stream"
)

// UDF is a scalar user-defined function callable from query expressions.
// The paper registers Roll-Pitch-Yaw operators this way (§3.2); the engine
// facade provides them, and the query compiler only needs name + arity +
// implementation.
type UDF struct {
	Name string
	// Arity is the required argument count; -1 accepts any number of
	// arguments (at least one).
	Arity int
	// Fn evaluates the function. The args slice is pooled by the compiler
	// and reused across calls — implementations must not retain it.
	Fn func(args []float64) float64

	// mathAbs marks the builtin abs, the only function the range-row
	// recogniser may replace with math.Abs; a user function that merely
	// shares the name is left to the closure compiler.
	mathAbs bool
}

// BuiltinUDFs returns the default scalar function registry: abs, min, max,
// sqrt, and dist (Euclidean distance between two 3D points, used for the
// forearm scale factor in §3.2).
func BuiltinUDFs() map[string]UDF {
	return map[string]UDF{
		"abs":  {Name: "abs", Arity: 1, Fn: func(a []float64) float64 { return math.Abs(a[0]) }, mathAbs: true},
		"sqrt": {Name: "sqrt", Arity: 1, Fn: func(a []float64) float64 { return math.Sqrt(a[0]) }},
		"min": {Name: "min", Arity: -1, Fn: func(a []float64) float64 {
			m := a[0]
			for _, v := range a[1:] {
				m = math.Min(m, v)
			}
			return m
		}},
		"max": {Name: "max", Arity: -1, Fn: func(a []float64) float64 {
			m := a[0]
			for _, v := range a[1:] {
				m = math.Max(m, v)
			}
			return m
		}},
		"dist": {Name: "dist", Arity: 6, Fn: func(a []float64) float64 {
			dx, dy, dz := a[0]-a[3], a[1]-a[4], a[2]-a[5]
			return math.Sqrt(dx*dx + dy*dy + dz*dz)
		}},
	}
}

// Env provides the compilation context: the schema of each stream or view a
// query may reference, plus the available scalar functions.
type Env struct {
	Schemas map[string]*stream.Schema
	UDFs    map[string]UDF
}

// NewEnv builds an Env with the builtin UDFs pre-registered.
func NewEnv() *Env {
	return &Env{
		Schemas: make(map[string]*stream.Schema),
		UDFs:    BuiltinUDFs(),
	}
}

// Compiled is an executable query: the cep pattern plus resolved policies
// and the single source stream the pattern reads.
type Compiled struct {
	Output  string
	Source  string
	Pattern cep.Pattern
	Select  cep.SelectPolicy
	Consume cep.ConsumePolicy
	// NumAtoms is the number of event atoms (NFA states).
	NumAtoms int
	// Measures are the compiled output-measure evaluators (§3.3.4),
	// applied to the final matched tuple of each detection.
	Measures []func(stream.Tuple) float64
	// Reads is the set of source fields the atoms and measures read: the
	// rest of a tuple cannot change a detection.
	Reads *stream.ReadSet
}

// CompileQuery type-checks q against env and produces an executable form.
// All event atoms must reference the same source stream — a pattern cannot
// span streams (the paper's queries always read the kinect_t view).
func CompileQuery(q *Query, env *Env) (*Compiled, error) {
	if q == nil || q.Pattern == nil {
		return nil, fmt.Errorf("query: nil query")
	}
	if q.Output == "" {
		return nil, fmt.Errorf("query: empty output name")
	}
	if env == nil {
		return nil, fmt.Errorf("query: nil environment")
	}
	atoms := q.Pattern.Atoms()
	if len(atoms) == 0 {
		return nil, fmt.Errorf("query %q: pattern has no event atoms", q.Output)
	}
	source := atoms[0].Source
	for _, a := range atoms {
		if a.Source != source {
			return nil, fmt.Errorf("query %q: pattern mixes sources %q and %q; all atoms must read one stream",
				q.Output, source, a.Source)
		}
	}
	schema, ok := env.Schemas[source]
	if !ok {
		return nil, fmt.Errorf("query %q: unknown source stream %q", q.Output, source)
	}

	pat, err := compilePattern(q.Pattern, q.Output, schema, env, new(int))
	if err != nil {
		return nil, fmt.Errorf("query %q: %w", q.Output, err)
	}

	var measures []func(stream.Tuple) float64
	for i, m := range q.Measures {
		ev, err := compileExpr(m, schema, env.UDFs)
		if err != nil {
			return nil, fmt.Errorf("query %q: measure %d: %w", q.Output, i, err)
		}
		measures = append(measures, ev)
	}
	// Every attribute resolved above, so each identifier has an index.
	var reads []int
	read := func(e Expr) {
		for _, name := range Idents(e) {
			i, _ := schema.Index(name)
			reads = append(reads, i)
		}
	}
	for _, a := range atoms {
		read(a.Pred)
	}
	for _, m := range q.Measures {
		read(m)
	}

	c := &Compiled{
		Output:   q.Output,
		Source:   source,
		Pattern:  pat,
		Select:   cep.SelectFirst,
		Consume:  cep.ConsumeAll,
		NumAtoms: len(atoms),
		Measures: measures,
		Reads:    stream.NewReadSet(reads...),
	}
	if q.Pattern.HasSelect {
		c.Select = q.Pattern.Select
	}
	if q.Pattern.HasConsume {
		c.Consume = q.Pattern.Consume
	}
	return c, nil
}

func compilePattern(node *PatternNode, gesture string, schema *stream.Schema, env *Env, atomIdx *int) (cep.Pattern, error) {
	seq := &cep.Sequence{}
	if node.HasWithin {
		seq.Within = node.Within
	}
	for _, term := range node.Terms {
		switch {
		case term.Atom != nil:
			atom, err := CompileAtom(fmt.Sprintf("%s[%d]", gesture, *atomIdx), term.Atom.Pred, schema, env.UDFs)
			if err != nil {
				return nil, err
			}
			*atomIdx++
			seq.Elems = append(seq.Elems, atom)
		case term.Group != nil:
			sub, err := compilePattern(term.Group, gesture, schema, env, atomIdx)
			if err != nil {
				return nil, err
			}
			seq.Elems = append(seq.Elems, sub)
		default:
			return nil, fmt.Errorf("empty pattern term")
		}
	}
	return seq, nil
}

// CompileAtom compiles a boolean expression over the given schema into a
// pattern atom. A conjunction of `abs(attr ± literal) < literal` terms — the
// only predicate shape the learner generates (§3.3.4) — becomes the atom's
// range rows, which the NFA evaluates inline. Every other expression becomes
// a closure from the general compiler, true when the result is non-zero.
// Both compute the same float expression, so which form a predicate gets is
// invisible in its results.
func CompileAtom(label string, e Expr, schema *stream.Schema, udfs map[string]UDF) (*cep.Atom, error) {
	if rows, ok := recogniseRanges(e, schema, udfs); ok {
		return &cep.Atom{Label: label, Ranges: rows}, nil
	}
	ev, err := compileExpr(e, schema, udfs)
	if err != nil {
		return nil, err
	}
	return cep.NewAtom(label, func(t stream.Tuple) bool { return ev(t) != 0 }), nil
}

// recogniseRanges reports whether e is a conjunction (any nesting of `and`)
// of terms abs(attr - c) < w or abs(attr + c) < w over known attributes,
// with c and w plain literals and abs the builtin, and returns its rows in
// evaluation order. attr + c is stored as center −c: x − (−c) and x + c are
// the same IEEE operation. Anything else — including an unknown attribute,
// which the closure compiler turns into the error — is not recognised.
func recogniseRanges(e Expr, schema *stream.Schema, udfs map[string]UDF) ([]cep.Range, bool) {
	cmp, ok := e.(*Binary)
	if !ok {
		return nil, false
	}
	if cmp.Op == OpAnd {
		l, lok := recogniseRanges(cmp.L, schema, udfs)
		r, rok := recogniseRanges(cmp.R, schema, udfs)
		if !lok || !rok {
			return nil, false
		}
		return append(l, r...), true
	}
	width, ok := cmp.R.(*NumberLit)
	if !ok || cmp.Op != OpLT {
		return nil, false
	}
	call, ok := cmp.L.(*Call)
	if !ok || len(call.Args) != 1 || !udfs[call.Name].mathAbs {
		return nil, false
	}
	shift, ok := call.Args[0].(*Binary)
	if !ok || (shift.Op != OpSub && shift.Op != OpAdd) {
		return nil, false
	}
	attr, ok := shift.L.(*Ident)
	if !ok {
		return nil, false
	}
	center, ok := shift.R.(*NumberLit)
	if !ok {
		return nil, false
	}
	field, ok := schema.Index(attr.Name)
	if !ok {
		return nil, false
	}
	row := cep.Range{Field: field, Center: center.Value, HalfWidth: width.Value}
	if shift.Op == OpAdd {
		row.Center = -center.Value
	}
	return []cep.Range{row}, true
}

// CompileScalar compiles an arithmetic expression over the given schema
// into a tuple-to-float evaluator. Exposed for output-measure expressions.
func CompileScalar(e Expr, schema *stream.Schema, udfs map[string]UDF) (func(stream.Tuple) float64, error) {
	return compileExpr(e, schema, udfs)
}

func compileExpr(e Expr, schema *stream.Schema, udfs map[string]UDF) (func(stream.Tuple) float64, error) {
	switch n := e.(type) {
	case *NumberLit:
		v := n.Value
		return func(stream.Tuple) float64 { return v }, nil

	case *Ident:
		idx, ok := schema.Index(n.Name)
		if !ok {
			return nil, fmt.Errorf("unknown attribute %q (schema %s)", n.Name, schema)
		}
		return func(t stream.Tuple) float64 { return t.Fields[idx] }, nil

	case *Unary:
		x, err := compileExpr(n.X, schema, udfs)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case OpNeg:
			return func(t stream.Tuple) float64 { return -x(t) }, nil
		case OpNot:
			return func(t stream.Tuple) float64 { return b2f(x(t) == 0) }, nil
		default:
			return nil, fmt.Errorf("invalid unary operator %s", n.Op)
		}

	case *Binary:
		l, err := compileExpr(n.L, schema, udfs)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(n.R, schema, udfs)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case OpAdd:
			return func(t stream.Tuple) float64 { return l(t) + r(t) }, nil
		case OpSub:
			return func(t stream.Tuple) float64 { return l(t) - r(t) }, nil
		case OpMul:
			return func(t stream.Tuple) float64 { return l(t) * r(t) }, nil
		case OpDiv:
			return func(t stream.Tuple) float64 { return l(t) / r(t) }, nil
		case OpLT:
			return func(t stream.Tuple) float64 { return b2f(l(t) < r(t)) }, nil
		case OpLE:
			return func(t stream.Tuple) float64 { return b2f(l(t) <= r(t)) }, nil
		case OpGT:
			return func(t stream.Tuple) float64 { return b2f(l(t) > r(t)) }, nil
		case OpGE:
			return func(t stream.Tuple) float64 { return b2f(l(t) >= r(t)) }, nil
		case OpEQ:
			return func(t stream.Tuple) float64 { return b2f(l(t) == r(t)) }, nil
		case OpNE:
			return func(t stream.Tuple) float64 { return b2f(l(t) != r(t)) }, nil
		case OpAnd:
			return func(t stream.Tuple) float64 { return b2f(l(t) != 0 && r(t) != 0) }, nil
		case OpOr:
			return func(t stream.Tuple) float64 { return b2f(l(t) != 0 || r(t) != 0) }, nil
		default:
			return nil, fmt.Errorf("invalid binary operator %s", n.Op)
		}

	case *Call:
		udf, ok := udfs[n.Name]
		if !ok {
			return nil, fmt.Errorf("unknown function %q", n.Name)
		}
		if udf.Arity >= 0 && len(n.Args) != udf.Arity {
			return nil, fmt.Errorf("function %q expects %d arguments, got %d", n.Name, udf.Arity, len(n.Args))
		}
		if udf.Arity < 0 && len(n.Args) == 0 {
			return nil, fmt.Errorf("function %q needs at least one argument", n.Name)
		}
		args := make([]func(stream.Tuple) float64, len(n.Args))
		for i, a := range n.Args {
			ev, err := compileExpr(a, schema, udfs)
			if err != nil {
				return nil, err
			}
			args[i] = ev
		}
		fn := udf.Fn
		// The argument scratch slice is pooled per call site: compiled
		// programs are shared across sessions and shards, so the same
		// closure runs concurrently and cannot reuse a single buffer. The
		// pool keeps the hot path allocation-free; UDF implementations must
		// not retain the slice past the call (the builtins don't).
		nargs := len(args)
		pool := &sync.Pool{New: func() any {
			s := make([]float64, nargs)
			return &s
		}}
		return func(t stream.Tuple) float64 {
			vp := pool.Get().(*[]float64)
			vals := *vp
			for i, a := range args {
				vals[i] = a(t)
			}
			v := fn(vals)
			pool.Put(vp)
			return v
		}, nil

	default:
		return nil, fmt.Errorf("unknown expression node %T", e)
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
