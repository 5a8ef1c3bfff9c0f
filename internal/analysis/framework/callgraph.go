package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"sync"
)

// CallEdge is one static call site inside a function declaration.
type CallEdge struct {
	Site   *ast.CallExpr
	Callee *types.Func
}

// CallGraph is the package's static call graph: every same-package
// function declaration, the statically resolvable calls inside each
// (including calls inside nested function literals — a closure built on a
// path runs that path's contract), and the object→declaration index
// needed to walk it. Dynamic calls through function values and interface
// methods have no edges; analyzers that traverse the graph document that
// under-approximation.
type CallGraph struct {
	pass  *Pass
	byObj map[*types.Func]*ast.FuncDecl
	edges map[*ast.FuncDecl][]CallEdge
	decls []*ast.FuncDecl
}

// BuildCallGraph constructs (and caches) the pass's call graph.
func (p *Pass) BuildCallGraph() *CallGraph {
	if p.callgraph != nil {
		return p.callgraph
	}
	g := &CallGraph{
		pass:  p,
		byObj: make(map[*types.Func]*ast.FuncDecl),
		edges: make(map[*ast.FuncDecl][]CallEdge),
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g.decls = append(g.decls, fd)
			if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g.byObj[obj] = fd
			}
		}
	}
	for _, fd := range g.decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := StaticCallee(p.TypesInfo, call); fn != nil {
				g.edges[fd] = append(g.edges[fd], CallEdge{Site: call, Callee: fn})
			}
			return true
		})
	}
	p.callgraph = g
	return g
}

// StaticCallee resolves the *types.Func a call statically invokes: a named
// function or a method called through a concrete receiver. A method of an
// instantiated generic type resolves to its generic declaration. Calls
// through function-typed values, builtins and interface methods resolve
// to nil.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[f.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// DeclOf returns the same-package declaration of fn, or nil.
func (g *CallGraph) DeclOf(fn *types.Func) *ast.FuncDecl { return g.byObj[fn] }

// Edges returns the static call sites inside fd.
func (g *CallGraph) Edges(fd *ast.FuncDecl) []CallEdge { return g.edges[fd] }

// Reach records how a function became reachable from a marked root.
type Reach struct {
	// Root is the marked declaration the walk started from.
	Root *ast.FuncDecl
	// Marker is the root's marker name (for diagnostics).
	Marker string
	// Site is the call that first reached this declaration (nil for roots).
	Site *ast.CallExpr
	// Caller is the declaration containing Site (nil for roots).
	Caller *ast.FuncDecl
}

// ReachableFrom walks the same-package call graph breadth-first from the
// given roots (each mapped to its marker name for diagnostics) and returns
// every declaration reachable through static calls, roots included.
func (g *CallGraph) ReachableFrom(roots map[*ast.FuncDecl]string) map[*ast.FuncDecl]Reach {
	reach := make(map[*ast.FuncDecl]Reach, len(roots))
	var queue []*ast.FuncDecl
	// Deterministic BFS order: roots in declaration order.
	for _, fd := range g.decls {
		if marker, ok := roots[fd]; ok {
			reach[fd] = Reach{Root: fd, Marker: marker}
			queue = append(queue, fd)
		}
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		from := reach[fd]
		for _, e := range g.edges[fd] {
			callee := g.byObj[e.Callee]
			if callee == nil {
				continue // cross-package or no body
			}
			if _, seen := reach[callee]; seen {
				continue
			}
			reach[callee] = Reach{Root: from.Root, Marker: from.Marker, Site: e.Site, Caller: fd}
			queue = append(queue, callee)
		}
	}
	return reach
}

// ---------------------------------------------------------------------------
// Cross-package summaries.
//
// Export data carries no function bodies, but it carries declaration
// positions — the same hook framework.Markers uses to resolve annotations
// on other packages' APIs. For the one-hop summaries the clockuse analyzer
// needs ("does this out-of-package callee read the wall clock directly?"),
// the declaring source file is parsed once, cached process-wide, and the
// declaration enclosing the object's line is summarized syntactically.
// ---------------------------------------------------------------------------

type parsedDeclFile struct {
	fset *token.FileSet
	file *ast.File
}

// declFileASTCache caches parsed declaration files, shared across passes
// within a process (nil entry: unparseable file).
var declFileASTCache sync.Map // filename -> *parsedDeclFile

func loadDeclFile(filename string) *parsedDeclFile {
	if v, ok := declFileASTCache.Load(filename); ok {
		pf, _ := v.(*parsedDeclFile)
		return pf
	}
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, nil, parser.ParseComments)
	var pf *parsedDeclFile
	if err == nil {
		pf = &parsedDeclFile{fset: fset, file: file}
	}
	declFileASTCache.Store(filename, pf)
	return pf
}

// DeclFile returns the cached parse of a declaring source file, or
// (nil, nil) when it cannot be read or parsed.
func DeclFile(filename string) (*token.FileSet, *ast.File) {
	pf := loadDeclFile(filename)
	if pf == nil {
		return nil, nil
	}
	return pf.fset, pf.file
}

// FuncDeclAt parses the source file and returns the function declaration
// whose extent covers the given line, with the FileSet it was parsed
// under. It returns (nil, nil) when the file cannot be read or no
// declaration matches — callers treat that as "no summary available".
func FuncDeclAt(filename string, line int) (*token.FileSet, *ast.FuncDecl) {
	pf := loadDeclFile(filename)
	if pf == nil {
		return nil, nil
	}
	for _, d := range pf.file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		start := pf.fset.Position(fd.Pos()).Line
		end := pf.fset.Position(fd.End()).Line
		if line >= start && line <= end {
			return pf.fset, fd
		}
	}
	return nil, nil
}

// ImportName returns the local name a file binds the given import path to
// ("" when the file does not import it; the default name when unrenamed).
func ImportName(file *ast.File, path, defaultName string) string {
	for _, imp := range file.Imports {
		p := imp.Path.Value // quoted
		if p != `"`+path+`"` {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return defaultName
	}
	return ""
}
