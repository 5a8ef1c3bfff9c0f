// Package clockuse defines a smoothvet analyzer pinning the time source of
// hot paths: any function reachable from a //smoothvet:noalloc root (the
// per-tick step paths of the serving and load-generating engines) must not
// read the wall clock. time.Now, time.Since and time.Until are flagged, as
// is arming SetWriteDeadline from a wall-clock read inside such a function
// — a per-write time.Now re-arm is the regression this guards against.
// Hot code takes its notion of "now" from an explicit monotonic now
// parameter: the reactor core's stamp, taken once per wake or per tick.
//
// Reachability is the package call graph from the noalloc roots through
// statically resolvable calls (see framework.CallGraph); calls through
// function values and interface methods are not followed. Calls into other
// packages of this module get a one-hop summary: the callee's declaring
// source file is parsed and its body scanned for wall-clock reads, so a
// step path cannot launder time.Now through a helper package. Deeper
// cross-package chains are out of scope by design — hot helpers are
// expected to carry their own //smoothvet:noalloc marker and be vetted in
// their own package.
package clockuse

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the clockuse analyzer.
var Analyzer = &framework.Analyzer{
	Name: "clockuse",
	Doc: "report wall-clock reads (time.Now/Since/Until, deadline re-arms) in code " +
		"reachable from //smoothvet:noalloc paths, which must use the shard clock",
	Run: run,
}

// modulePrefix scopes the one-hop cross-package summaries to this module.
const modulePrefix = "repro/"

func run(pass *framework.Pass) error {
	markers := pass.ParseMarkers()
	roots := make(map[*ast.FuncDecl]string)
	for _, fd := range markers.FuncDecls(framework.MarkerNoAlloc) {
		roots[fd] = framework.MarkerNoAlloc
	}
	if len(roots) == 0 {
		return nil
	}
	g := pass.BuildCallGraph()
	reach := g.ReachableFrom(roots)

	// Deterministic order: declarations in file order.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if how, ok := reach[fd]; ok {
				c := &checker{pass: pass, fd: fd, how: how}
				ast.Inspect(fd.Body, c.check)
			}
		}
	}
	return nil
}

type checker struct {
	pass *framework.Pass
	fd   *ast.FuncDecl
	how  framework.Reach
}

// wallClockFuncs are the package-level time functions that read the wall
// clock (Since and Until call Now internally).
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func (c *checker) check(n ast.Node) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return true
	}

	// SetWriteDeadline armed from a wall-clock read: one specific message,
	// and the inner time.Now is not reported separately.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "SetWriteDeadline" {
		for _, arg := range call.Args {
			if clock := c.findWallClockCall(arg); clock != "" {
				c.reportf(call.Pos(),
					"per-write SetWriteDeadline re-arm from time.%s", clock)
				return false
			}
		}
		return true
	}

	fn := framework.StaticCallee(c.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return true
	}
	switch {
	case fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()]:
		c.reportf(call.Pos(), "time.%s reads the wall clock", fn.Name())
	case fn.Pkg() != c.pass.Pkg && strings.HasPrefix(fn.Pkg().Path(), modulePrefix):
		if clock, declPos := c.calleeReadsClock(fn); clock != "" {
			c.reportf(call.Pos(), "call to %s.%s reaches time.%s (declared at %s)",
				fn.Pkg().Name(), fn.Name(), clock, declPos)
		}
	}
	return true
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	suffix := " on a //smoothvet:noalloc path; derive time from the shard clock or a monotonic now parameter"
	if c.how.Root != c.fd {
		suffix = " on a //smoothvet:noalloc path (reachable from " + c.how.Root.Name.Name +
			"); derive time from the shard clock or a monotonic now parameter"
	}
	c.pass.Reportf(pos, format+"%s", append(args, suffix)...)
}

// findWallClockCall reports the name of a wall-clock time function called
// anywhere inside e ("" when there is none).
func (c *checker) findWallClockCall(e ast.Expr) string {
	found := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.StaticCallee(c.pass.TypesInfo, call)
		if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
			found = fn.Name()
			return false
		}
		return true
	})
	return found
}

// calleeReadsClock is the one-hop cross-package summary: parse the
// declaring file of a same-module callee and scan its body syntactically
// for wall-clock reads through that file's "time" import.
func (c *checker) calleeReadsClock(fn *types.Func) (clock, declPos string) {
	posn := c.pass.Fset.Position(fn.Pos())
	if !posn.IsValid() || posn.Filename == "" {
		return "", ""
	}
	fset, fd := framework.FuncDeclAt(posn.Filename, posn.Line)
	if fd == nil {
		return "", ""
	}
	_, file := framework.DeclFile(posn.Filename)
	if file == nil {
		return "", ""
	}
	timeName := framework.ImportName(file, "time", "time")
	if timeName == "" {
		return "", ""
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if clock != "" {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == timeName && wallClockFuncs[sel.Sel.Name] {
			clock = sel.Sel.Name
		}
		return true
	})
	if clock == "" {
		return "", ""
	}
	p := fset.Position(fd.Pos())
	return clock, filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}
