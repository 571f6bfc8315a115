package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// LockOrder enforces documented mutex acquisition orders. The gateway's
// contract (internal/cluster/gateway.go) is that proxySession.mu is
// always acquired before backend.mu, and Gateway.memberMu before
// fleet.mu — the reverse nesting is a deadlock that only fires under
// the right interleaving, which is exactly what a soak can miss.
//
// The analyzer is driven by a registration table of ordered pairs keyed
// by (type name, field name): acquiring pair.First while pair.Second is
// held in the same function is reported. New lock pairs ride along as a
// lockOrderTable entry when the order is documented.
//
// Because the check is intra-procedural, functions whose callers hold a
// lock declare it with a doc-comment annotation, extending coverage one
// level down the call graph:
//
//	//lint:holds proxySession.mu
//	func (gw *Gateway) ensureOwnerLocked(ps *proxySession) error { ... }
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce documented mutex acquisition orders (ps.mu before be.mu)",
	Run:  runLockOrder,
}

// lockKey identifies an annotated lock: the named type carrying it and
// the mutex field name. Matching is by type base name, not full path, so
// analyzer fixtures can model the shape without importing internals.
type lockKey struct {
	Type  string
	Field string
}

func (k lockKey) String() string { return k.Type + "." + k.Field }

// lockOrderPair declares "First is acquired before Second"; holding
// Second while acquiring First is the violation.
type lockOrderPair struct{ First, Second lockKey }

var lockOrderTable = []lockOrderPair{
	// internal/cluster: the ownership transition (place/bind/
	// ensureOwnerLocked) and migration hold ps.mu and take be.mu inside
	// it; the reverse nesting deadlocks against them.
	{lockKey{"proxySession", "mu"}, lockKey{"backend", "mu"}},
	// internal/cluster: membership verbs serialize on memberMu and use
	// the fleet's mu for each fine-grained step inside.
	{lockKey{"Gateway", "memberMu"}, lockKey{"fleet", "mu"}},
}

var holdsRe = regexp.MustCompile(`^//lint:holds\s+(\S+)$`)

func runLockOrder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lo := &lockOrderWalker{pass: pass}
			held := map[lockKey]token.Pos{}
			for _, k := range holdsAnnotations(fd.Doc) {
				held[k] = fd.Pos()
			}
			lo.stmts(fd.Body.List, held)
		}
	}
	return nil
}

func holdsAnnotations(doc *ast.CommentGroup) []lockKey {
	if doc == nil {
		return nil
	}
	var keys []lockKey
	for _, c := range doc.List {
		m := holdsRe.FindStringSubmatch(c.Text)
		if m == nil {
			continue
		}
		parts := strings.Split(m[1], ".")
		if len(parts) == 2 {
			keys = append(keys, lockKey{parts[0], parts[1]})
		}
	}
	return keys
}

type lockOrderWalker struct {
	pass *Pass
}

// stmts interprets a statement list, tracking which annotated locks are
// held. Branches are explored independently and joined by intersection
// (a lock only counts as held after a join if it is held on every path),
// so the analyzer never reports an order violation that some path avoids
// — it must run clean on correct code.
func (lo *lockOrderWalker) stmts(list []ast.Stmt, held map[lockKey]token.Pos) bool {
	for _, s := range list {
		if lo.stmt(s, held) {
			return true
		}
	}
	return false
}

// stmt returns true when the statement terminates the path.
func (lo *lockOrderWalker) stmt(s ast.Stmt, held map[lockKey]token.Pos) bool {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return lo.stmts(s.List, held)
	case *ast.LabeledStmt:
		return lo.stmt(s.Stmt, held)
	case *ast.ExprStmt:
		lo.expr(s.X, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			lo.expr(r, held)
		}
	case *ast.DeclStmt:
		// no lock ops in declarations worth modelling
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held to the end of the
		// function, which is the conservative direction for ordering.
		// A deferred Lock would be bizarre; ignore.
	case *ast.GoStmt:
		// The goroutine body starts with its own empty held-set.
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			lo.stmts(fl.Body.List, map[lockKey]token.Pos{})
		}
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE || s.Tok == token.GOTO
	case *ast.IfStmt:
		if s.Init != nil {
			lo.stmt(s.Init, held)
		}
		lo.expr(s.Cond, held)
		thenHeld := copyHeld(held)
		thenTerm := lo.stmt(s.Body, thenHeld)
		elseHeld := copyHeld(held)
		elseTerm := false
		if s.Else != nil {
			elseTerm = lo.stmt(s.Else, elseHeld)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			replaceHeld(held, elseHeld)
		case elseTerm:
			replaceHeld(held, thenHeld)
		default:
			replaceHeld(held, intersectHeld(thenHeld, elseHeld))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			lo.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lo.expr(s.Cond, held)
		}
		body := copyHeld(held)
		lo.stmt(s.Body, body)
		if s.Post != nil {
			lo.stmt(s.Post, body)
		}
		// After the loop the zero-iteration path is possible: keep entry.
	case *ast.RangeStmt:
		lo.expr(s.X, held)
		body := copyHeld(held)
		lo.stmt(s.Body, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		lo.branches(s, held)
	case *ast.SendStmt:
		lo.expr(s.Value, held)
	}
	return false
}

func (lo *lockOrderWalker) branches(s ast.Stmt, held map[lockKey]token.Pos) {
	var bodies [][]ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			lo.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			bodies = append(bodies, c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			bodies = append(bodies, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			bodies = append(bodies, c.(*ast.CommClause).Body)
		}
	}
	var joined map[lockKey]token.Pos
	for _, body := range bodies {
		branch := copyHeld(held)
		if lo.stmts(body, branch) {
			continue
		}
		if joined == nil {
			joined = branch
		} else {
			joined = intersectHeld(joined, branch)
		}
	}
	if joined != nil {
		replaceHeld(held, joined)
	}
}

// expr looks for x.<field>.Lock()/Unlock() calls on annotated locks and
// updates the held set; nested calls inside the expression are visited.
func (lo *lockOrderWalker) expr(e ast.Expr, held map[lockKey]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // deferred execution; analyzed via GoStmt or not at all
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op, ok := lo.lockOp(call)
		if !ok {
			return true
		}
		switch op {
		case "Lock", "RLock":
			for heldKey := range held {
				for _, pair := range lockOrderTable {
					if pair.First == key && pair.Second == heldKey {
						lo.pass.Reportf(call.Pos(),
							"acquiring %s while %s is held inverts the documented %s before %s lock order",
							key, heldKey, pair.First, pair.Second)
					}
				}
			}
			held[key] = call.Pos()
		case "Unlock", "RUnlock":
			delete(held, key)
		}
		return true
	})
}

// lockOp decodes a call of the form owner.field.Lock() where field is a
// sync mutex on a named struct type that appears in the order table.
func (lo *lockOrderWalker) lockOp(call *ast.CallExpr) (lockKey, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	op := sel.Sel.Name
	if op != "Lock" && op != "Unlock" && op != "RLock" && op != "RUnlock" {
		return lockKey{}, "", false
	}
	fn := calleeFunc(lo.pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockKey{}, "", false
	}
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, "", false
	}
	fv := fieldVarOf(lo.pass.Info, fieldSel)
	if fv == nil {
		return lockKey{}, "", false
	}
	ownerType := lo.pass.Info.TypeOf(fieldSel.X)
	named := namedOf(ownerType)
	if named == nil {
		return lockKey{}, "", false
	}
	key := lockKey{named.Obj().Name(), fv.Name()}
	if !lockKeyKnown(key) {
		return lockKey{}, "", false
	}
	return key, op, true
}

func lockKeyKnown(k lockKey) bool {
	for _, pair := range lockOrderTable {
		if pair.First == k || pair.Second == k {
			return true
		}
	}
	return false
}

func copyHeld(held map[lockKey]token.Pos) map[lockKey]token.Pos {
	out := make(map[lockKey]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func replaceHeld(dst, src map[lockKey]token.Pos) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func intersectHeld(a, b map[lockKey]token.Pos) map[lockKey]token.Pos {
	out := map[lockKey]token.Pos{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}
