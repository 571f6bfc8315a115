package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FramePool checks the frame-pool ownership contract from internal/wire:
// every buffer obtained with GetFrameBuf — or taken from a connection's
// reader with RawBatch.Own — must, on every control-flow path, be released with PutFrameBuf or leave the function through a
// sanctioned ownership transfer — returning it, storing it into a
// structure, or handing it to a transfer API. The two transfer APIs with
// a conditional contract (Client.ProxyBatchOwned and coalescer.enqueue
// with owned=true: callee owns the buffer on success, the caller keeps it
// on error) are modelled path-sensitively through the error variable they
// return, which is exactly how the gateway's retry loop uses them.
//
// Additionally flagged, for any local variable including parameters:
// use after PutFrameBuf, and releasing the same buffer twice.
//
// The analysis is a structured abstract interpretation of the function
// body (if/else, loops, switch, select, defer) — not a full CFG — which
// is sound for this codebase's shapes: when tracking becomes ambiguous
// (aliasing, address-taken, handed to an unknown callee) the buffer is
// conservatively marked escaped and never reported.
var FramePool = &Analyzer{
	Name: "framepool",
	Doc:  "every wire.GetFrameBuf or RawBatch.Own must reach PutFrameBuf or an ownership transfer on all paths",
	Run:  runFramePool,
}

const fpPutName = "gesturecep/internal/wire.PutFrameBuf"

// fpSources are the calls whose result the caller owns: a fresh buffer
// from the pool, or the connection reader's buffer a wire.Session took in
// Batch (the reader forgets it, so nobody else will release it).
var fpSources = map[string]bool{
	"gesturecep/internal/wire.GetFrameBuf":    true,
	"(gesturecep/internal/wire.RawBatch).Own": true,
}

// fpTransfers maps sanctioned conditional-transfer functions to the
// index of the buffer argument. On success the callee owns the buffer;
// on a non-nil error, ownership stays with the caller.
var fpTransfers = map[string]int{
	"(*gesturecep/internal/wire.Client).ProxyBatchOwned": 1,
	"(*gesturecep/internal/wire.coalescer).enqueue":      1,
}

type fpState uint8

const (
	fpOwned    fpState = iota // must be released or transferred
	fpCond                    // transfer attempted; outcome rides on the error var
	fpMaybe                   // transfer attempted, outcome unobserved: no obligations
	fpDeferred                // defer PutFrameBuf registered; valid until return
	fpReleased                // back in the pool; any use is a bug
	fpEscaped                 // ownership left the function; tracking stops
	fpMixed                   // owned on some paths only
)

type fpInfo struct {
	st   fpState
	cond *types.Var // fpCond: error variable deciding ownership
	get  token.Pos  // where the buffer was obtained (or released, for fpReleased)
}

type fpEnv map[*types.Var]fpInfo

func cloneEnv(env fpEnv) fpEnv {
	out := make(fpEnv, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

func runFramePool(pass *Pass) error {
	w := &fpWalker{pass: pass}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				w.analyzeBody(fd.Body)
			}
		}
	}
	// Function literals queued during the walk get their own analysis;
	// captures of enclosing buffers were already marked escaped.
	for len(w.lits) > 0 {
		lit := w.lits[0]
		w.lits = w.lits[1:]
		w.analyzeBody(lit.Body)
	}
	return nil
}

type fpWalker struct {
	pass *Pass
	lits []*ast.FuncLit
}

func (w *fpWalker) analyzeBody(body *ast.BlockStmt) {
	env := fpEnv{}
	w.execBlock(body.List, env, body.End())
}

// execBlock runs a statement list in its own lexical scope: buffers
// declared inside it that are still owned when the block falls off its
// end have leaked.
func (w *fpWalker) execBlock(list []ast.Stmt, env fpEnv, end token.Pos) bool {
	declared := map[*types.Var]bool{}
	term := w.execStmts(list, env, declared)
	if !term {
		for v := range declared {
			w.leakCheck(v, env, end)
		}
	}
	for v := range declared {
		delete(env, v)
	}
	return term
}

func (w *fpWalker) leakCheck(v *types.Var, env fpEnv, at token.Pos) {
	switch info := env[v]; info.st {
	case fpOwned:
		w.pass.Reportf(at, "pooled frame buffer %s (obtained at line %d) is neither released with PutFrameBuf nor ownership-transferred on this path",
			v.Name(), w.pass.Fset.Position(info.get).Line)
	case fpMixed:
		w.pass.Reportf(at, "pooled frame buffer %s (obtained at line %d) is released on some paths but leaks on others",
			v.Name(), w.pass.Fset.Position(info.get).Line)
	}
}

func (w *fpWalker) execStmts(list []ast.Stmt, env fpEnv, declared map[*types.Var]bool) bool {
	for _, s := range list {
		if w.execStmt(s, env, declared) {
			return true
		}
	}
	return false
}

// execStmt returns true when the statement terminates the path.
func (w *fpWalker) execStmt(s ast.Stmt, env fpEnv, declared map[*types.Var]bool) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return w.execBlock(s.List, env, s.End())
	case *ast.LabeledStmt:
		return w.execStmt(s.Stmt, env, declared)
	case *ast.EmptyStmt:
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if fpSources[calleeName(w.pass.Info, call)] {
				w.pass.Reportf(call.Pos(), "pooled frame buffer discarded: it can never be released")
				w.scanArgs(call, env)
				return false
			}
		}
		w.scanExpr(s.X, env, true)
	case *ast.AssignStmt:
		w.execAssign(s, env, declared)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					w.scanExpr(val, env, true)
				}
				if len(vs.Values) == 1 && len(vs.Names) == 1 {
					if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok &&
						fpSources[calleeName(w.pass.Info, call)] {
						if v, ok := w.pass.Info.Defs[vs.Names[0]].(*types.Var); ok {
							env[v] = fpInfo{st: fpOwned, get: call.Pos()}
							declared[v] = true
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			w.scanExpr(res, env, true) // returning the buffer transfers it
		}
		for v := range env {
			w.leakCheck(v, env, s.Pos())
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto end the current straight-line path; leak
		// detection for them rides on the surrounding loop analysis.
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.IfStmt:
		return w.execIf(s, env, declared)
	case *ast.ForStmt:
		if s.Init != nil {
			w.execStmt(s.Init, env, declared)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, env, false)
		}
		body := cloneEnv(env)
		if !w.execStmt(s.Body, body, declared) && s.Post != nil {
			w.execStmt(s.Post, body, declared)
		}
		joinInto(env, body)
		// A loop with no condition and no break out of it never falls
		// through (the gateway's forward-and-retry loop): every exit is a
		// return, already checked where it stands.
		return s.Cond == nil && !breaksOut(s.Body)
	case *ast.RangeStmt:
		w.scanExpr(s.X, env, false)
		body := cloneEnv(env)
		w.execStmt(s.Body, body, declared)
		joinInto(env, body)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.execStmt(s.Init, env, declared)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, env, false)
		}
		return w.execBranches(caseBodies(s.Body), hasDefaultClause(s.Body), env)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.execStmt(s.Init, env, declared)
		}
		return w.execBranches(caseBodies(s.Body), hasDefaultClause(s.Body), env)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil {
				w.execStmt(comm, env, declared)
			}
		}
		return w.execBranches(commBodies(s.Body), true, env)
	case *ast.DeferStmt:
		if w.isPut(s.Call) {
			w.handlePut(s.Call, env, true)
			return false
		}
		w.scanExpr(s.Call, env, true)
	case *ast.GoStmt:
		w.scanExpr(s.Call, env, true)
	case *ast.IncDecStmt:
		w.scanExpr(s.X, env, false)
	case *ast.SendStmt:
		w.scanExpr(s.Chan, env, false)
		w.scanExpr(s.Value, env, true)
	}
	return false
}

func caseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		out = append(out, c.(*ast.CaseClause).Body)
	}
	return out
}

func commBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		out = append(out, c.(*ast.CommClause).Body)
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// execBranches joins the branch environments; when the construct is not
// exhaustive (a switch without default) the entry environment joins too.
func (w *fpWalker) execBranches(bodies [][]ast.Stmt, exhaustive bool, env fpEnv) bool {
	var joined fpEnv
	allTerm := true
	for _, body := range bodies {
		branch := cloneEnv(env)
		if w.execBlock(body, branch, bodyEnd(body)) {
			continue
		}
		allTerm = false
		if joined == nil {
			joined = branch
		} else {
			joinInto(joined, branch)
		}
	}
	if !exhaustive || len(bodies) == 0 {
		if joined == nil {
			joined = cloneEnv(env)
		} else {
			joinInto(joined, env)
		}
		allTerm = false
	}
	if allTerm {
		return true
	}
	replaceEnv(env, joined)
	return false
}

func bodyEnd(body []ast.Stmt) token.Pos {
	if len(body) == 0 {
		return token.NoPos
	}
	return body[len(body)-1].End()
}

func (w *fpWalker) execIf(s *ast.IfStmt, env fpEnv, declared map[*types.Var]bool) bool {
	if s.Init != nil {
		w.execStmt(s.Init, env, declared)
	}
	condVar, isEql := nilCompare(w.pass.Info, s.Cond)
	w.scanExpr(s.Cond, env, false)
	thenEnv, elseEnv := cloneEnv(env), cloneEnv(env)
	if condVar != nil {
		for v, info := range env {
			if info.st == fpCond && info.cond == condVar {
				// err == nil: transfer succeeded in the then branch.
				if isEql {
					thenEnv[v] = fpInfo{st: fpReleased, get: info.get}
					elseEnv[v] = fpInfo{st: fpOwned, get: info.get}
				} else {
					thenEnv[v] = fpInfo{st: fpOwned, get: info.get}
					elseEnv[v] = fpInfo{st: fpReleased, get: info.get}
				}
			}
		}
	}
	thenTerm := w.execStmt(s.Body, thenEnv, declared)
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.execStmt(s.Else, elseEnv, declared)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		replaceEnv(env, elseEnv)
	case elseTerm:
		replaceEnv(env, thenEnv)
	default:
		joinInto(thenEnv, elseEnv)
		replaceEnv(env, thenEnv)
	}
	return false
}

// nilCompare decodes `x == nil` / `x != nil` over a plain identifier.
func nilCompare(info *types.Info, cond ast.Expr) (*types.Var, bool) {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil, false
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	if isNilIdent(info, x) {
		x, y = y, x
	}
	if !isNilIdent(info, y) {
		return nil, false
	}
	id, ok := x.(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, _ := info.ObjectOf(id).(*types.Var)
	return v, be.Op == token.EQL
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.ObjectOf(id).(*types.Nil)
	return isNil
}

// breaksOut reports whether a loop body can leave its loop through a break:
// an unlabeled one not captured by a nested loop, switch or select, or —
// conservatively — any labeled one.
func breaksOut(body *ast.BlockStmt) bool {
	var nested []bool // per open node: does it capture unlabeled breaks?
	depth, found := 0, false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			if nested[len(nested)-1] {
				depth--
			}
			nested = nested[:len(nested)-1]
			return true
		case *ast.FuncLit:
			return false
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && (n.Label != nil || depth == 0) {
				found = true
			}
		}
		captures := false
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			captures = true
			depth++
		}
		nested = append(nested, captures)
		return true
	})
	return found
}

func (w *fpWalker) execAssign(s *ast.AssignStmt, env fpEnv, declared map[*types.Var]bool) {
	// Sanctioned single-call forms first: v := GetFrameBuf(n) and
	// res..., err := transfer(..., v, ...).
	if len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			name := calleeName(w.pass.Info, call)
			if fpSources[name] && len(s.Lhs) == 1 {
				w.scanArgs(call, env)
				if v := identVar(w.pass.Info, s.Lhs[0]); v != nil {
					if old, ok := env[v]; ok && (old.st == fpOwned || old.st == fpMixed) {
						w.pass.Reportf(s.Pos(), "pooled frame buffer %s (obtained at line %d) overwritten before release",
							v.Name(), w.pass.Fset.Position(old.get).Line)
					}
					env[v] = fpInfo{st: fpOwned, get: call.Pos()}
					if s.Tok == token.DEFINE {
						declared[v] = true
					}
					return
				}
			}
			if idx, ok := w.transferIndex(call, name); ok {
				w.execTransfer(s, call, idx, env)
				return
			}
		}
	}
	for _, r := range s.Rhs {
		w.scanExpr(r, env, true)
	}
	for _, l := range s.Lhs {
		switch l := ast.Unparen(l).(type) {
		case *ast.Ident:
			v := identVar(w.pass.Info, l)
			if v == nil {
				continue
			}
			if old, ok := env[v]; ok {
				if old.st == fpOwned || old.st == fpMixed {
					w.pass.Reportf(s.Pos(), "pooled frame buffer %s (obtained at line %d) overwritten before release",
						v.Name(), w.pass.Fset.Position(old.get).Line)
				}
				delete(env, v)
			}
		case *ast.IndexExpr:
			w.scanExpr(l.Index, env, false)
			w.scanExpr(l.X, env, false) // writing v[i] = x is a safe use
		case *ast.SelectorExpr:
			w.scanExpr(l.X, env, false)
		case *ast.StarExpr:
			w.scanExpr(l.X, env, false)
		}
	}
}

// transferIndex resolves a call to a sanctioned transfer API, requiring
// coalescer.enqueue's owned argument to be the literal true (otherwise
// the payload is borrowed, not transferred, and tracking gives up).
func (w *fpWalker) transferIndex(call *ast.CallExpr, name string) (int, bool) {
	idx, ok := fpTransfers[name]
	if !ok || idx >= len(call.Args) {
		return 0, false
	}
	if name == "(*gesturecep/internal/wire.coalescer).enqueue" && len(call.Args) >= 3 {
		lit, ok := ast.Unparen(call.Args[2]).(*ast.Ident)
		if !ok || lit.Name != "true" {
			return 0, false
		}
	}
	return idx, true
}

func (w *fpWalker) execTransfer(s *ast.AssignStmt, call *ast.CallExpr, bufIdx int, env fpEnv) {
	for i, arg := range call.Args {
		if i != bufIdx {
			w.scanExpr(arg, env, true)
		}
	}
	v := identVar(w.pass.Info, call.Args[bufIdx])
	if v == nil {
		w.scanExpr(call.Args[bufIdx], env, true)
		return
	}
	info, tracked := env[v]
	if tracked && info.st == fpReleased {
		w.reportUseAfterPut(call.Args[bufIdx].Pos(), v, info)
		env[v] = fpInfo{st: fpEscaped}
		return
	}
	if !tracked || info.st != fpOwned {
		if tracked {
			env[v] = fpInfo{st: fpEscaped}
		}
		return
	}
	// Bind the outcome to the error result when the caller names it.
	last := s.Lhs[len(s.Lhs)-1]
	if errV := identVar(w.pass.Info, last); errV != nil && isErrorVar(errV) {
		env[v] = fpInfo{st: fpCond, cond: errV, get: info.get}
		return
	}
	env[v] = fpInfo{st: fpMaybe, get: info.get}
}

func isErrorVar(v *types.Var) bool {
	named, ok := v.Type().(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

func (w *fpWalker) isPut(call *ast.CallExpr) bool {
	return calleeName(w.pass.Info, call) == fpPutName
}

// handlePut applies PutFrameBuf(v) (or its deferred form) to the
// environment. Untracked locals — typically parameters — become Released
// so later uses are still caught.
func (w *fpWalker) handlePut(call *ast.CallExpr, env fpEnv, deferred bool) {
	if len(call.Args) != 1 {
		return
	}
	v := identVar(w.pass.Info, call.Args[0])
	if v == nil {
		w.scanExpr(call.Args[0], env, false)
		return
	}
	info, tracked := env[v]
	if tracked {
		switch info.st {
		case fpReleased:
			w.pass.Reportf(call.Pos(), "pooled frame buffer %s released twice (previous PutFrameBuf at line %d)",
				v.Name(), w.pass.Fset.Position(info.get).Line)
			return
		case fpDeferred:
			w.pass.Reportf(call.Pos(), "pooled frame buffer %s released twice (a deferred PutFrameBuf is already registered)", v.Name())
			return
		case fpEscaped:
			return
		}
	}
	if deferred {
		env[v] = fpInfo{st: fpDeferred, get: info.get}
		return
	}
	env[v] = fpInfo{st: fpReleased, get: call.Pos()}
}

func (w *fpWalker) reportUseAfterPut(pos token.Pos, v *types.Var, info fpInfo) {
	w.pass.Reportf(pos, "use of pooled frame buffer %s after PutFrameBuf (released at line %d)",
		v.Name(), w.pass.Fset.Position(info.get).Line)
}

func (w *fpWalker) scanArgs(call *ast.CallExpr, env fpEnv) {
	for _, a := range call.Args {
		w.scanExpr(a, env, true)
	}
}

// scanExpr walks an expression looking for uses of tracked buffers.
// Released buffers report on any use. Live buffers in escaping positions
// transfer out of the analysis; safe uses (indexing, len/cap/copy,
// comparisons) keep their state.
func (w *fpWalker) scanExpr(e ast.Expr, env fpEnv, escaping bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		v := identVar(w.pass.Info, e)
		if v == nil {
			return
		}
		info, tracked := env[v]
		if !tracked {
			return
		}
		if info.st == fpReleased {
			w.reportUseAfterPut(e.Pos(), v, info)
			env[v] = fpInfo{st: fpEscaped}
			return
		}
		if escaping {
			env[v] = fpInfo{st: fpEscaped}
		}
	case *ast.ParenExpr:
		w.scanExpr(e.X, env, escaping)
	case *ast.IndexExpr:
		w.scanExpr(e.Index, env, false)
		w.scanExpr(e.X, env, false) // v[i] reads an element, not the buffer
	case *ast.SliceExpr:
		for _, idx := range []ast.Expr{e.Low, e.High, e.Max} {
			w.scanExpr(idx, env, false)
		}
		w.scanExpr(e.X, env, true) // v[a:b] aliases the buffer
	case *ast.CallExpr:
		w.execCallExpr(e, env)
	case *ast.UnaryExpr:
		w.scanExpr(e.X, env, true) // &v and friends alias
	case *ast.BinaryExpr:
		w.scanExpr(e.X, env, false)
		w.scanExpr(e.Y, env, false)
	case *ast.StarExpr:
		w.scanExpr(e.X, env, escaping)
	case *ast.SelectorExpr:
		w.scanExpr(e.X, env, false)
	case *ast.TypeAssertExpr:
		w.scanExpr(e.X, env, true)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.scanExpr(kv.Value, env, true)
				continue
			}
			w.scanExpr(el, env, true)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(e.Value, env, true)
	case *ast.FuncLit:
		w.lits = append(w.lits, e)
		// Everything a closure captures escapes this function's tracking.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v := identVar(w.pass.Info, id)
			if v == nil {
				return true
			}
			if info, tracked := env[v]; tracked {
				if info.st == fpReleased {
					w.reportUseAfterPut(id.Pos(), v, info)
				}
				env[v] = fpInfo{st: fpEscaped}
			}
			return true
		})
	}
}

// execCallExpr handles calls in expression position: sinks and transfers
// keep their semantics; unknown callees make buffer arguments escape;
// len/cap/copy are safe.
func (w *fpWalker) execCallExpr(call *ast.CallExpr, env fpEnv) {
	name := calleeName(w.pass.Info, call)
	if name == fpPutName {
		w.handlePut(call, env, false)
		return
	}
	if idx, ok := w.transferIndex(call, name); ok {
		for i, arg := range call.Args {
			if i != idx {
				w.scanExpr(arg, env, true)
			}
		}
		if v := identVar(w.pass.Info, call.Args[idx]); v != nil {
			if info, tracked := env[v]; tracked {
				if info.st == fpReleased {
					w.reportUseAfterPut(call.Args[idx].Pos(), v, info)
				}
				env[v] = fpInfo{st: fpMaybe, get: info.get}
			}
		} else {
			w.scanExpr(call.Args[idx], env, true)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := w.pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "copy":
				for _, a := range call.Args {
					w.scanExpr(a, env, false)
				}
				return
			}
		}
	}
	w.scanExpr(call.Fun, env, false)
	w.scanArgs(call, env)
}

// --- joins ---

func replaceEnv(dst, src fpEnv) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

// joinInto merges b into a at a control-flow join. Disagreements between
// "still owned" and "released" become fpMixed (reported only if the
// buffer is still mixed when a path ends); anything harder to reconcile
// escapes, which silences rather than misreports.
func joinInto(a fpEnv, b fpEnv) {
	for v, ia := range a {
		ib, ok := b[v]
		if !ok {
			delete(a, v)
			continue
		}
		if ia.st == ib.st && ia.cond == ib.cond {
			continue
		}
		pair := func(x, y fpState) bool {
			return (ia.st == x && ib.st == y) || (ia.st == y && ib.st == x)
		}
		get := ia.get
		if ia.st == fpReleased {
			get = ib.get
		}
		switch {
		case pair(fpOwned, fpReleased), pair(fpMixed, fpOwned), pair(fpMixed, fpReleased):
			a[v] = fpInfo{st: fpMixed, get: get}
		case pair(fpMaybe, fpReleased):
			a[v] = fpInfo{st: fpMaybe, get: get}
		default:
			a[v] = fpInfo{st: fpEscaped}
		}
	}
	// Vars present only in b were declared in a scope that already ran its
	// own exit check; they carry no obligation across the join.
}
