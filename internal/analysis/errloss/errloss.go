// Package errloss implements the smoothvet analyzer for wire-path error
// hygiene in the serving packages (internal/serve, internal/netstream):
//
//   - a call whose results include an error must not be used as a bare
//     statement (or go statement): handle the error or discard it with an
//     explicit `_ =` assignment, which is greppable and review-visible.
//     Deferred calls are exempt (deferred cleanup has nowhere to report),
//     as is the fmt.Print family.
//   - a Write call on a deadline-capable connection (any value whose
//     method set has SetWriteDeadline, i.e. net.Conn and friends) must be
//     preceded in the same function by arming a write deadline on that
//     same connection, so one stalled client cannot wedge a shard loop
//     forever. Writers that are plain io.Writer are out of scope, as are
//     raw non-blocking fd writes (the serve engine writes sessions through
//     its reactor shard and never blocks on a conn).
package errloss

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Scope lists package-path suffixes the analyzer applies to. A variable so
// the analyzer's tests can scope their testdata packages in.
var Scope = []string{
	"repro/internal/serve",
	"repro/internal/netstream",
	"repro/internal/diag",
	"repro/internal/obs",
	"repro/internal/lb",
}

// Analyzer is the error-hygiene checker.
var Analyzer = &framework.Analyzer{
	Name: "errloss",
	Doc:  "report dropped errors and conn writes without a write deadline in the serving packages",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if !pass.InScope(Scope) {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDroppedErrors(pass, fd)
			checkWriteDeadlines(pass, fd.Body)
			// Function literals get their own flow problem: a deadline
			// armed in the enclosing function does not excuse a write in a
			// closure that may run on another goroutine or much later.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkWriteDeadlines(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checkDroppedErrors flags expression-statement and go-statement calls
// whose results include an error.
func checkDroppedErrors(pass *framework.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = ast.Unparen(n.X).(*ast.CallExpr)
		case *ast.GoStmt:
			call = n.Call
		case *ast.DeferStmt:
			return false // deferred cleanup is exempt
		}
		if call == nil {
			return true
		}
		if !returnsError(pass, call) || isPrintCall(pass, call) {
			return true
		}
		pass.Reportf(call.Pos(), "%s returns an error that is silently dropped; handle it or assign to _ explicitly", calleeName(pass, call))
		return true
	})
}

// returnsError reports whether any result of the call is error-typed.
func returnsError(pass *framework.Pass, call *ast.CallExpr) bool {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return false
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return types.Identical(t, errorType) }

// isPrintCall exempts the fmt.Print family, whose error results are
// conventionally ignored.
func isPrintCall(pass *framework.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")
}

// calleeName renders the called expression for the diagnostic.
func calleeName(pass *framework.Pass, call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}

// checkWriteDeadlines flags recv.Write(...) calls on deadline-capable
// receivers that no path from the function entry arms with
// recv.SetWriteDeadline(...) first. Arming is tracked flow-sensitively
// over the framework CFG with may-reach semantics: an arm on some path to
// the write suffices (a writer may arm conditionally, say once per tick),
// but an arm the control flow cannot carry to the write — on a
// returning branch, or later in source — no longer does, which is the
// false-negative gap the old position-based check had.
func checkWriteDeadlines(pass *framework.Pass, body *ast.BlockStmt) {
	cfg := framework.NewCFG(body)
	framework.RunFlow(cfg, framework.Facts{}, func(n ast.Node, facts framework.Facts, report bool) {
		eachCall(n, func(call *ast.CallExpr) {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			key := "arm:" + types.ExprString(ast.Unparen(sel.X))
			switch sel.Sel.Name {
			case "SetWriteDeadline":
				facts[key] = "armed"
			case "Write":
				recvT := pass.TypesInfo.TypeOf(sel.X)
				if recvT == nil || !hasSetWriteDeadline(recvT) {
					return
				}
				if _, armed := facts[key]; !armed && report {
					pass.Reportf(call.Pos(),
						"write to %s without arming SetWriteDeadline first; a stalled peer blocks this goroutine forever",
						types.ExprString(ast.Unparen(sel.X)))
				}
			}
		})
	}, nil)
}

// eachCall visits the call expressions inside one CFG node in syntactic
// order, skipping nested function literals (analyzed separately).
func eachCall(n ast.Node, fn func(*ast.CallExpr)) {
	if rh, ok := n.(*framework.RangeHead); ok {
		n = rh.Range.X
	}
	ast.Inspect(n, func(inner ast.Node) bool {
		if _, ok := inner.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := inner.(*ast.CallExpr); ok {
			fn(call)
		}
		return true
	})
}

// hasSetWriteDeadline reports whether the type's method set includes
// SetWriteDeadline — the structural signature of net.Conn and the
// deadline-capable wrappers.
func hasSetWriteDeadline(t types.Type) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "SetWriteDeadline" {
			return true
		}
	}
	// Pointer receivers widen the method set.
	if _, ok := t.(*types.Pointer); !ok && !types.IsInterface(t) {
		return hasSetWriteDeadlinePtr(t)
	}
	return false
}

func hasSetWriteDeadlinePtr(t types.Type) bool {
	ms := types.NewMethodSet(types.NewPointer(t))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == "SetWriteDeadline" {
			return true
		}
	}
	return false
}
