// Package hotpath implements the smoothvet analyzer that keeps the
// benchmarked 0 allocs/op claims honest: functions annotated
// //smoothvet:noalloc (the core Server.Step loop, the netstream codec, the
// serving engine's per-step path) are checked for constructs that allocate
// on the steady-state path.
//
// Flagged: func literals (closure allocation), go statements, new, make
// outside a cap()-guarded amortized-growth branch, map/slice literals,
// addresses of composite literals that are retained (direct call arguments
// are exempt — they usually stay on the stack), append whose result lands
// in a different variable than its source (self-append `x = append(x, ...)`
// and `return append(x, ...)` are the sanctioned amortized idioms),
// string<->[]byte/[]rune conversions, and implicit interface conversions
// (boxing) in assignments, call arguments, and returns. A generic
// function is checked once, on its declaration: converting a
// type-parameter value to an interface counts as boxing.
//
// Error exits are exempt: any return statement whose final result is a
// (possibly constructed) non-nil error suppresses diagnostics inside it —
// wrapping with fmt.Errorf on the failure path does not violate the
// steady-state contract.
//
// Deliberately not flagged (amortized or allocation-free): map reads,
// map writes and deletes on retained maps, struct composite values, and
// slicing.
//
// Unmarked functions a noalloc root reaches through the package call
// graph get a reduced rule set — only func literals and go statements,
// the unconditional allocators — so hot helpers cannot hide a closure
// behind a missing marker while their error branches stay quiet.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc:  "report allocating constructs inside //smoothvet:noalloc functions",
	Run:  run,
}

func run(pass *framework.Pass) error {
	markers := pass.ParseMarkers()
	marked := make(map[*ast.FuncDecl]bool)
	roots := make(map[*ast.FuncDecl]string)
	for _, fd := range markers.FuncDecls(framework.MarkerNoAlloc) {
		marked[fd] = true
		roots[fd] = framework.MarkerNoAlloc
		if fd.Body != nil {
			check(pass, fd)
		}
	}
	// Unmarked helpers reachable from a noalloc root are on the hot path
	// too. The full rule set would drown their error branches in noise, so
	// only the unconditional allocators — closures and goroutine spawns —
	// are flagged there; the rest of the contract asks for an explicit
	// marker on the helper.
	reach := pass.BuildCallGraph().ReachableFrom(roots)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || marked[fd] {
				continue
			}
			how, ok := reach[fd]
			if !ok {
				continue
			}
			checkReachable(pass, fd, how.Root)
		}
	}
	return nil
}

// checkReachable flags closure and goroutine allocation in an unmarked
// function that a //smoothvet:noalloc root reaches through the package
// call graph.
func checkReachable(pass *framework.Pass, fd, root *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "func literal allocates a closure on a //smoothvet:noalloc path (reachable from %s)", root.Name.Name)
			return false
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine on a //smoothvet:noalloc path (reachable from %s)", root.Name.Name)
			return false
		}
		return true
	})
}

// checker walks one noalloc function keeping the ancestor context needed
// by the exemption rules.
type checker struct {
	pass     *framework.Pass
	fd       *ast.FuncDecl
	suppress []posRange // error-exit returns
	capGuard []posRange // if-bodies guarded by a cap() comparison
}

type posRange struct{ lo, hi token.Pos }

func (c *checker) suppressed(p token.Pos) bool {
	for _, r := range c.suppress {
		if r.lo <= p && p <= r.hi {
			return true
		}
	}
	return false
}

func (c *checker) capGuarded(p token.Pos) bool {
	for _, r := range c.capGuard {
		if r.lo <= p && p <= r.hi {
			return true
		}
	}
	return false
}

func check(pass *framework.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, fd: fd}
	// Pass 1: collect exemption regions.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if c.isErrorExit(n) {
				c.suppress = append(c.suppress, posRange{n.Pos(), n.End()})
			}
		case *ast.IfStmt:
			if containsCapCall(n.Cond) {
				c.capGuard = append(c.capGuard, posRange{n.Body.Pos(), n.Body.End()})
			}
		}
		return true
	})
	// Pass 2: report allocating constructs.
	c.walk(fd.Body)
}

// isErrorExit reports whether the return's last result is an error-typed
// expression other than the literal nil.
func (c *checker) isErrorExit(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	last := ret.Results[len(ret.Results)-1]
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	t := c.pass.TypesInfo.TypeOf(last)
	return t != nil && isErrorType(t)
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return types.Implements(t, errorType)
}

func containsCapCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "cap" {
				found = true
			}
		}
		return !found
	})
	return found
}

// walk recursively checks n; it handles the contexts (assignments,
// returns, call arguments) that change how children are judged.
func (c *checker) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.FuncLit:
		c.report(n.Pos(), "func literal allocates a closure")
		return // the literal's body is not the annotated hot path

	case *ast.GoStmt:
		c.report(n.Pos(), "go statement allocates a goroutine")
		return

	case *ast.AssignStmt:
		for i, rhs := range n.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && c.isBuiltin(call, "append") && i < len(n.Lhs) {
				if types.ExprString(ast.Unparen(n.Lhs[i])) != types.ExprString(ast.Unparen(call.Args[0])) {
					c.report(call.Pos(), "append result assigned to a different variable always allocates; use the self-append idiom x = append(x, ...)")
				}
				// Judge the append's operands, not the append itself.
				for _, a := range call.Args {
					c.walkExpr(a, false)
				}
				continue
			}
			c.walkExpr(rhs, false)
			// Implicit boxing: concrete value assigned to interface target.
			if i < len(n.Lhs) && len(n.Lhs) == len(n.Rhs) {
				c.checkBox(c.pass.TypesInfo.TypeOf(n.Lhs[i]), rhs)
			}
		}
		for _, lhs := range n.Lhs {
			c.walkExpr(lhs, false)
		}
		return

	case *ast.ReturnStmt:
		if c.suppressed(n.Pos()) {
			return
		}
		sig := c.signature()
		for i, res := range n.Results {
			if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && c.isBuiltin(call, "append") {
				// Returning an append continues the caller's amortized
				// buffer — the append-style encoder idiom.
				for _, a := range call.Args {
					c.walkExpr(a, false)
				}
				continue
			}
			c.walkExpr(res, false)
			if sig != nil && sig.Results().Len() == len(n.Results) {
				c.checkBox(sig.Results().At(i).Type(), res)
			}
		}
		return

	case ast.Expr:
		c.walkExpr(n, false)
		return
	}

	// Generic statement: recurse over children via Inspect one level at a
	// time is fiddly; instead reuse Inspect but cut off at nodes the cases
	// above own.
	ast.Inspect(n, func(m ast.Node) bool {
		if m == n || m == nil {
			return true
		}
		switch m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.AssignStmt, *ast.ReturnStmt:
			c.walk(m)
			return false
		case ast.Expr:
			c.walkExpr(m.(ast.Expr), false)
			return false
		}
		return true
	})
}

// walkExpr checks one expression tree. directArg is true when e is an
// immediate argument of a call (the &T{} stack-friendly position).
func (c *checker) walkExpr(e ast.Expr, directArg bool) {
	if e == nil || c.suppressed(e.Pos()) {
		return
	}
	switch e := e.(type) {
	case *ast.FuncLit:
		c.report(e.Pos(), "func literal allocates a closure")
		return

	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok && !directArg {
				c.report(e.Pos(), "address of composite literal escapes and allocates; reuse a struct or pass it as a direct call argument")
				return
			}
		}
		c.walkExpr(e.X, false)

	case *ast.CompositeLit:
		switch c.pass.TypesInfo.TypeOf(e).Underlying().(type) {
		case *types.Map:
			c.report(e.Pos(), "map literal allocates")
		case *types.Slice:
			c.report(e.Pos(), "slice literal allocates")
		}
		for _, el := range e.Elts {
			c.walkExpr(el, false)
		}

	case *ast.KeyValueExpr:
		c.walkExpr(e.Value, false)

	case *ast.CallExpr:
		c.checkCall(e)

	case *ast.ParenExpr:
		c.walkExpr(e.X, directArg)

	case *ast.BinaryExpr:
		c.walkExpr(e.X, false)
		c.walkExpr(e.Y, false)

	case *ast.StarExpr:
		c.walkExpr(e.X, false)

	case *ast.SelectorExpr:
		c.walkExpr(e.X, false)

	case *ast.IndexExpr:
		c.walkExpr(e.X, false)
		c.walkExpr(e.Index, false)

	case *ast.SliceExpr:
		c.walkExpr(e.X, false)
		c.walkExpr(e.Low, false)
		c.walkExpr(e.High, false)
		c.walkExpr(e.Max, false)

	case *ast.TypeAssertExpr:
		c.walkExpr(e.X, false)
	}
}

func (c *checker) checkCall(call *ast.CallExpr) {
	tv, isConv := c.pass.TypesInfo.Types[call.Fun]
	switch {
	case c.isBuiltin(call, "new"):
		c.report(call.Pos(), "new allocates; reuse a field or local")
		return
	case c.isBuiltin(call, "make"):
		if !c.capGuarded(call.Pos()) {
			c.report(call.Pos(), "make allocates on every call; amortize growth behind an `if cap(buf) < n` guard")
		}
		for _, a := range call.Args[1:] {
			c.walkExpr(a, false)
		}
		return
	case c.isBuiltin(call, "append"):
		// An append outside the sanctioned assignment/return positions
		// produces a fresh backing array the moment it grows.
		c.report(call.Pos(), "append result is not reassigned to its source; growth allocates a new backing array")
		for _, a := range call.Args {
			c.walkExpr(a, false)
		}
		return
	case isConv && tv.IsType():
		// Conversion: string <-> []byte/[]rune copies.
		if tv.Value == nil && len(call.Args) == 1 && isStringBytesConv(tv.Type, c.pass.TypesInfo.TypeOf(call.Args[0])) {
			c.report(call.Pos(), "string/byte-slice conversion copies its operand")
		}
		for _, a := range call.Args {
			c.walkExpr(a, false)
		}
		return
	}

	c.walkExpr(call.Fun, false)
	sig := calleeSignature(c.pass, call)
	for i, a := range call.Args {
		c.walkExpr(a, true)
		if sig != nil && !call.Ellipsis.IsValid() {
			c.checkBox(paramType(sig, i), a)
		}
	}
}

// checkBox reports an implicit concrete-to-interface conversion.
func (c *checker) checkBox(target types.Type, val ast.Expr) {
	if target == nil || c.suppressed(val.Pos()) {
		return
	}
	if !isInterface(target) {
		return
	}
	vt := c.pass.TypesInfo.TypeOf(val)
	if vt == nil || isInterface(vt) {
		return
	}
	if b, ok := vt.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	c.report(val.Pos(), "implicit conversion to %s boxes the value and allocates", target)
}

// isInterface reports whether t is an interface type. A type parameter is
// not: its constraint is an interface, but its values are concrete, and
// converting one to an interface boxes it.
func isInterface(t types.Type) bool {
	if _, ok := t.(*types.TypeParam); ok {
		return false
	}
	return types.IsInterface(t)
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.suppressed(pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

func (c *checker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = c.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

func (c *checker) signature() *types.Signature {
	if obj, ok := c.pass.TypesInfo.Defs[c.fd.Name].(*types.Func); ok {
		return obj.Type().(*types.Signature)
	}
	return nil
}

// calleeSignature resolves the static signature of a call, if any.
func calleeSignature(pass *framework.Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypesInfo.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// paramType returns the type the i-th argument converts to, unrolling the
// variadic tail.
func paramType(sig *types.Signature, i int) types.Type {
	params := sig.Params()
	if params.Len() == 0 {
		return nil
	}
	if sig.Variadic() && i >= params.Len()-1 {
		last := params.At(params.Len() - 1).Type()
		if sl, ok := last.Underlying().(*types.Slice); ok {
			return sl.Elem()
		}
		return nil
	}
	if i >= params.Len() {
		return nil
	}
	return params.At(i).Type()
}

// isStringBytesConv reports a string <-> []byte/[]rune conversion.
func isStringBytesConv(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}
