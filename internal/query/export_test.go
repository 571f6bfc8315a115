package query

import "gesturecep/internal/stream"

// RangeRows exposes the range-table recogniser to the external tests: the
// number of rows e compiles to, or ok = false when CompilePredicate would
// fall back to the closure compiler.
func RangeRows(e Expr, schema *stream.Schema, udfs map[string]UDF) (rows int, ok bool) {
	tbl, ok := recogniseRanges(e, schema, udfs)
	return len(tbl), ok
}
