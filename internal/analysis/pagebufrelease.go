package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PageBufRelease checks that every scratch buffer obtained from
// pager.GetPageBuf is returned to the pool with Release() on every path
// out of the acquiring function — including early error returns, the
// classic way a pooled buffer leaks. The same holds for pooled page
// images: a *pager.Page variable that a function Releases anywhere must
// be Released on every path after each call that assigns it. The
// analysis is a CFG-lite forward walk over the statement tree: it clones
// the live-buffer set at every branch, merges the states of branches that
// fall through, and reports any return reached with an unreleased buffer.
//
// Ownership transfers are recognized conservatively: passing the buffer
// itself (not its .B or .Data bytes) to another function, returning it,
// storing it anywhere, or capturing it in a closure all end tracking, so
// the pass never reports a buffer whose lifetime legitimately escapes the
// function. A call that returns a page together with an error returns no
// page when the error is set, so the `if err != nil` branch right after
// it (before err is assigned again) owes no Release.
var PageBufRelease = &Pass{
	Name: "pagebufrelease",
	Doc:  "every pager.GetPageBuf, and every *pager.Page the function Releases, is Released on all return paths",
	Run:  runPageBufRelease,
}

func runPageBufRelease(pkg *Package) []Diagnostic {
	r := &bufReleaseChecker{pkg: pkg}
	for _, file := range pkg.Files {
		for _, fn := range funcBodies(file) {
			r.pages = r.releasedPages(fn.body)
			r.errPages = map[*types.Var][]*types.Var{}
			live := bufLive{}
			fallsThrough := r.stmts(fn.body.List, live)
			if fallsThrough {
				r.reportLive(live, fn.body.Rbrace, "function end")
			}
		}
	}
	return r.diags
}

// bufLive maps each tracked *PageBuf variable to its acquisition site.
type bufLive map[*types.Var]token.Pos

func (l bufLive) clone() bufLive {
	out := make(bufLive, len(l))
	for v, pos := range l {
		out[v] = pos
	}
	return out
}

type bufReleaseChecker struct {
	pkg   *Package
	diags []Diagnostic
	// pages are the current function's *pager.Page variables that it
	// Releases somewhere: the ones whose acquisitions are tracked.
	pages map[*types.Var]bool
	// errPages maps an error variable to the pages acquired by the call
	// that last assigned it.
	errPages map[*types.Var][]*types.Var
}

// origin names where a tracked variable's buffer comes from.
func (r *bufReleaseChecker) origin(v *types.Var) string {
	if r.pages[v] {
		return "read into a pooled *pager.Page"
	}
	return "acquired from pager.GetPageBuf"
}

func (r *bufReleaseChecker) reportLive(live bufLive, at token.Pos, where string) {
	for v, acquired := range live {
		r.diags = append(r.diags, r.pkg.diag("pagebufrelease", at,
			"%s %s at line %d is not Released on the path reaching %s",
			v.Name(), r.origin(v), r.pkg.line(acquired), where))
	}
}

// releasedPages returns the *pager.Page variables on which body calls
// Release(), not counting nested function literals (analyzed on their
// own).
func (r *bufReleaseChecker) releasedPages(body *ast.BlockStmt) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sel, ok := unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Release" || len(n.Args) != 0 {
				return true
			}
			if id, ok := unparen(sel.X).(*ast.Ident); ok {
				if v := r.objOf(id); v != nil && isPagerPtr(v.Type(), "Page") {
					out[v] = true
				}
			}
		}
		return true
	})
	return out
}

// isPagerPtr reports whether t is *pager.<name>.
func isPagerPtr(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == "pager"
}

// stmts walks a statement list, mutating live, and reports whether
// control can fall out of the end of the list.
func (r *bufReleaseChecker) stmts(list []ast.Stmt, live bufLive) bool {
	for _, s := range list {
		if !r.stmt(s, live) {
			return false
		}
	}
	return true
}

// stmt processes one statement; the return value is false when the
// statement terminates control flow (return, panic, os.Exit, ...).
func (r *bufReleaseChecker) stmt(s ast.Stmt, live bufLive) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		r.assign(s, live)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						r.escapes(val, live)
					}
				}
			}
		}
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if v := r.releaseTarget(call, live); v != nil {
				delete(live, v)
				return true
			}
			if isTerminatorCall(call) {
				// A panicking path may leak to the pool collector; that
				// is acceptable, the pool is only an optimization.
				return false
			}
		}
		r.escapes(s.X, live)
	case *ast.DeferStmt:
		if v := r.releaseTarget(s.Call, live); v != nil {
			// defer pb.Release() covers every subsequent exit.
			delete(live, v)
			return true
		}
		r.escapes(s.Call, live)
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			r.escapes(res, live)
		}
		r.reportLive(live, s.Pos(), "this return")
		return false
	case *ast.IfStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		r.escapes(s.Cond, live)
		thenLive := live.clone()
		for _, v := range r.pagesUnsetWhen(s.Cond) {
			delete(thenLive, v)
		}
		thenFT := r.stmts(s.Body.List, thenLive)
		elseLive := live.clone()
		elseFT := true
		if s.Else != nil {
			elseFT = r.stmt(s.Else, elseLive)
		}
		mergeBranches(live, []bufLive{thenLive, elseLive}, []bool{thenFT, elseFT})
		return thenFT || elseFT
	case *ast.BlockStmt:
		return r.stmts(s.List, live)
	case *ast.LabeledStmt:
		return r.stmt(s.Stmt, live)
	case *ast.ForStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		if s.Cond != nil {
			r.escapes(s.Cond, live)
		}
		r.loopBody(s.Body, live)
	case *ast.RangeStmt:
		r.escapes(s.X, live)
		r.loopBody(s.Body, live)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return r.caseBodies(s, live)
	case *ast.GoStmt:
		r.escapes(s.Call, live)
	case *ast.BranchStmt:
		// break/continue/goto: control leaves this list; the buffers
		// still live here stay tracked in the enclosing scope's state.
		return false
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				r.escapes(e, live)
				return false
			}
			return true
		})
	}
	return true
}

// loopBody analyzes a loop body in a cloned state: the loop may run zero
// times, so releases inside it do not count for the code after it, and a
// buffer acquired inside the body must be released before the iteration
// ends.
func (r *bufReleaseChecker) loopBody(body *ast.BlockStmt, live bufLive) {
	inner := live.clone()
	if r.stmts(body.List, inner) {
		for v, acquired := range inner {
			if _, outer := live[v]; !outer {
				r.diags = append(r.diags, r.pkg.diag("pagebufrelease", acquired,
					"%s %s is not Released by the end of the loop iteration",
					v.Name(), r.origin(v)))
			}
		}
	}
}

// caseBodies handles switch/type-switch/select: each clause runs on a
// clone, and the fall-out state is the union of every clause that falls
// through plus — when there is no default — the no-match path.
func (r *bufReleaseChecker) caseBodies(s ast.Stmt, live bufLive) bool {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		if s.Tag != nil {
			r.escapes(s.Tag, live)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			r.stmt(s.Init, live)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	var states []bufLive
	var falls []bool
	for _, clause := range body.List {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				r.escapes(e, live)
			}
			list = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			}
			list = c.Body
		}
		cl := live.clone()
		states = append(states, cl)
		falls = append(falls, r.stmts(list, cl))
	}
	if !hasDefault {
		states = append(states, live.clone())
		falls = append(falls, true)
	}
	ft := false
	for _, f := range falls {
		ft = ft || f
	}
	mergeBranches(live, states, falls)
	return ft
}

// mergeBranches replaces live with the union of the branch states that
// fall through: a buffer is still owed a Release after the branch if any
// reachable path left it unreleased.
func mergeBranches(live bufLive, states []bufLive, falls []bool) {
	for v := range live {
		delete(live, v)
	}
	for i, st := range states {
		if !falls[i] {
			continue
		}
		for v, pos := range st {
			live[v] = pos
		}
	}
}

// pagesUnsetWhen returns the pages that hold nothing when cond is true:
// cond is `err != nil` and err was last assigned by the call that
// acquired them.
func (r *bufReleaseChecker) pagesUnsetWhen(cond ast.Expr) []*types.Var {
	be, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return nil
	}
	id, ok := unparen(be.X).(*ast.Ident)
	if nilID, isID := unparen(be.Y).(*ast.Ident); !ok || !isID || nilID.Name != "nil" {
		return nil
	}
	if v := r.objOf(id); v != nil {
		return r.errPages[v]
	}
	return nil
}

// acquire starts tracking v, reporting an overwrite of a live buffer.
func (r *bufReleaseChecker) acquire(v *types.Var, at token.Pos, live bufLive) {
	if _, tracked := live[v]; tracked {
		r.diags = append(r.diags, r.pkg.diag("pagebufrelease", at,
			"%s is reassigned while still holding a buffer %s", v.Name(), r.origin(v)))
	}
	live[v] = at
}

// assign tracks GetPageBuf and page acquisitions and scans everything
// else on the statement for escapes.
func (r *bufReleaseChecker) assign(s *ast.AssignStmt, live bufLive) {
	// Any assignment to an error variable ends its pairing with the
	// pages of an earlier call.
	for _, lhs := range s.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if v := r.objOf(id); v != nil {
				delete(r.errPages, v)
			}
		}
	}
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		if call, ok := unparen(s.Rhs[0]).(*ast.CallExpr); ok {
			r.escapes(call, live)
			r.assignPages(s, s.Lhs, live)
			return
		}
	}
	for i, rhs := range s.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !r.isGetPageBuf(call) {
			r.escapes(rhs, live)
			if ok && i < len(s.Lhs) {
				r.assignPages(s, s.Lhs[i:i+1], live)
			}
			continue
		}
		for _, arg := range call.Args {
			r.escapes(arg, live)
		}
		if i >= len(s.Lhs) {
			continue
		}
		id, isIdent := s.Lhs[i].(*ast.Ident)
		if !isIdent {
			// Acquired into a field, slice element, ...: the buffer's
			// lifetime escapes this function; give up tracking.
			continue
		}
		if id.Name == "_" {
			r.diags = append(r.diags, r.pkg.diag("pagebufrelease", s.Pos(),
				"result of pager.GetPageBuf is discarded and can never be Released"))
			continue
		}
		if v := r.objOf(id); v != nil {
			r.acquire(v, s.Pos(), live)
		}
	}
}

// assignPages handles the left-hand sides assigned from one call's
// results: each tracked page among them is acquired, and an error result
// is paired with those pages.
func (r *bufReleaseChecker) assignPages(s *ast.AssignStmt, lhs []ast.Expr, live bufLive) {
	var got []*types.Var
	var errVar *types.Var
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v := r.objOf(id)
		switch {
		case v == nil:
		case r.pages[v]:
			r.acquire(v, s.Pos(), live)
			got = append(got, v)
		case types.Identical(v.Type(), types.Universe.Lookup("error").Type()):
			errVar = v
		}
	}
	if errVar != nil && len(got) > 0 {
		r.errPages[errVar] = got
	}
}

// escapes removes from live every tracked variable that is used in a way
// other than a blessed selector (see blessed): such a use hands the
// buffer to code this pass cannot see, so requiring a local Release would
// be wrong.
func (r *bufReleaseChecker) escapes(e ast.Expr, live bufLive) {
	if e == nil || len(live) == 0 {
		return
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// pb.B, p.Data, p.ID and Release are the blessed uses;
			// anything else selected from a tracked variable is an
			// escape.
			if id, ok := unparen(n.X).(*ast.Ident); ok {
				if v := r.objOf(id); v != nil {
					if _, tracked := live[v]; tracked {
						if r.blessed(v, n.Sel.Name) {
							return false
						}
						delete(live, v)
						return false
					}
				}
			}
		case *ast.Ident:
			if v := r.objOf(n); v != nil {
				if _, tracked := live[v]; tracked {
					delete(live, v)
				}
			}
		}
		return true
	}
	ast.Inspect(e, walk)
}

// blessed reports whether selecting sel from tracked variable v leaves
// the buffer in this function's hands.
func (r *bufReleaseChecker) blessed(v *types.Var, sel string) bool {
	if sel == "Release" {
		return true
	}
	if r.pages[v] {
		return sel == "Data" || sel == "ID"
	}
	return sel == "B"
}

// releaseTarget returns the tracked variable released by a pb.Release()
// call, or nil when the call is something else.
func (r *bufReleaseChecker) releaseTarget(call *ast.CallExpr, live bufLive) *types.Var {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	v := r.objOf(id)
	if v == nil {
		return nil
	}
	if _, tracked := live[v]; !tracked {
		return nil
	}
	return v
}

// isGetPageBuf reports whether the call resolves to pager.GetPageBuf.
func (r *bufReleaseChecker) isGetPageBuf(call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	obj := r.pkg.Info.Uses[id]
	if obj == nil || obj.Name() != "GetPageBuf" || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Name() == "pager"
}

func (r *bufReleaseChecker) objOf(id *ast.Ident) *types.Var {
	obj := r.pkg.Info.Uses[id]
	if obj == nil {
		obj = r.pkg.Info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// isTerminatorCall reports whether the call never returns: builtin
// panic, os.Exit, log.Fatal*, runtime.Goexit.
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "log.Fatal", "log.Fatalf", "log.Fatalln", "runtime.Goexit":
			return true
		}
	}
	return false
}
