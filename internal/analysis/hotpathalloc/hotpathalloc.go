// Package hotpathalloc guards the simulator's zero-allocation fast paths
// (DESIGN.md §9): for every function whose doc comment carries
// //xssd:hotpath, it flags constructs that introduce a heap allocation
// per call — the regressions that silently eat the engine's events/s.
package hotpathalloc

import (
	"go/ast"
	"go/types"

	"xssd/internal/analysis"
)

// Analyzer is the hotpathalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: `forbid allocation-introducing constructs in //xssd:hotpath functions

The PR 4 fast paths (event heap, now-queue, CMB append, destage, transport
mirroring, obs counter updates) are amortized zero-alloc: buffers recycle
through pools and queues reuse their backing arrays. A single fmt call,
escaping closure, interface boxing, or append that grows a fresh slice on
every invocation undoes that invisibly — benchmarks drift, no test fails.
Functions annotated //xssd:hotpath are held to the contract mechanically.
Sanctioned allocations (a delayed-fault path's mandatory private copy, the
message of a panic) carry //xssd:ignore hotpathalloc <reason>.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.HasDirective(fd.Doc, "hotpath") {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

// check walks one hot function's body. Nested function literals are
// reported as escaping closures when they capture enclosing state, and
// their bodies are not descended into — they run elsewhere.
func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	emptyLocals := emptySliceLocals(pass, fd.Body)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if caps := captures(pass, fd, n); len(caps) > 0 {
				pass.Reportf(n.Pos(), "hot path: closure capturing %s escapes to the heap", caps[0])
			}
			return false
		case *ast.CallExpr:
			checkCall(pass, fd, n, emptyLocals)
			// Descend into arguments, but not through Fun's selector (a
			// method expression used as callee is not a method value).
			for _, a := range n.Args {
				ast.Inspect(a, walk)
			}
			if inner, ok := analysis.Unparen(n.Fun).(*ast.CallExpr); ok {
				ast.Inspect(inner, walk)
			}
			return false
		case *ast.SelectorExpr:
			// A selector in value position resolving to a method creates a
			// bound method value — one allocation per evaluation.
			if obj, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok && obj.Type() != nil {
				if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
					pass.Reportf(n.Pos(), "hot path: bound method value %s allocates; bind it once outside the hot path", n.Sel.Name)
				}
			}
			return false
		case *ast.CompositeLit:
			if t, ok := pass.TypesInfo.Types[n]; ok && t.Type != nil {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					pass.Reportf(n.Pos(), "hot path: %s literal allocates on every call", kindName(t.Type))
					return false
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := analysis.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "hot path: &composite literal heap-allocates on every call")
					return false
				}
			}
		case *ast.BinaryExpr:
			if n.Op.String() == "+" {
				if t, ok := pass.TypesInfo.Types[n]; ok && t.Type != nil && isString(t.Type) {
					pass.Reportf(n.Pos(), "hot path: string concatenation allocates; build the string once outside the hot path")
				}
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// checkCall flags allocating calls: fmt, make/new, copying conversions
// between strings and byte or rune slices, and interface boxing of
// non-pointer-shaped arguments.
func checkCall(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, emptyLocals map[types.Object]bool) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		checkConversion(pass, call, tv.Type)
		return
	}
	if id, ok := analysis.Unparen(call.Fun).(*ast.Ident); ok {
		switch pass.TypesInfo.Uses[id] {
		case types.Universe.Lookup("make"):
			pass.Reportf(call.Pos(), "hot path: make allocates on every call; recycle through a pool")
			return
		case types.Universe.Lookup("new"):
			pass.Reportf(call.Pos(), "hot path: new allocates on every call; recycle through a pool")
			return
		case types.Universe.Lookup("append"):
			checkAppend(pass, fd, call, emptyLocals)
			return
		}
	}
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path: fmt.%s formats through reflection and allocates", fn.Name())
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i < params.Len() && !sig.Variadic()):
			pt = params.At(i).Type()
		case sig.Variadic() && params.Len() > 0:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isParam := pt.(*types.TypeParam); isParam {
			continue // a generic call is instantiated for the argument's type: nothing is boxed
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil || at.IsNil() {
			continue
		}
		if _, isIface := at.Type.Underlying().(*types.Interface); isIface {
			continue
		}
		if pointerShaped(at.Type) {
			continue
		}
		pass.Reportf(arg.Pos(), "hot path: converting %s to %s boxes the value on the heap", at.Type.String(), pt.String())
	}
}

// checkConversion flags string(b) and []byte(s) (and the rune-slice
// forms): each copies its operand into a fresh allocation. A constant
// operand converts at compile time.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || from.Type == nil || from.Value != nil {
		return
	}
	if isString(to) && isCharSlice(from.Type) || isCharSlice(to) && isString(from.Type) {
		pass.Reportf(call.Pos(), "hot path: converting %s to %s copies the bytes on every call", from.Type.String(), to.String())
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isCharSlice reports whether t is a []byte or a []rune.
func isCharSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// checkAppend flags appends whose destination starts empty on every
// call — the amortized-growth idioms (append to a pooled field, or to a
// local seeded from a field such as `h := append(e.heap, ev)`) stay
// quiet.
func checkAppend(pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr, emptyLocals map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	dst := analysis.Unparen(call.Args[0])
	for {
		switch d := dst.(type) {
		case *ast.IndexExpr:
			dst = analysis.Unparen(d.X)
			continue
		case *ast.SliceExpr:
			dst = analysis.Unparen(d.X)
			continue
		}
		break
	}
	switch d := dst.(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[d]; obj != nil && emptyLocals[obj] {
			pass.Reportf(call.Pos(), "hot path: append grows %s from empty on every call; reuse a pooled buffer", d.Name)
		}
	case *ast.CompositeLit:
		pass.Reportf(call.Pos(), "hot path: append to a slice literal allocates on every call")
	case *ast.CallExpr:
		// A conversion like []byte(nil) — the private-copy idiom — is an
		// allocation per call; sanctioned uses carry an ignore directive.
		// IsNil must be asked of the conversion's operand: the conversion
		// expression itself is an ordinary value.
		if t, ok := pass.TypesInfo.Types[d.Fun]; ok && t.IsType() && len(d.Args) == 1 {
			if tv, ok := pass.TypesInfo.Types[analysis.Unparen(d.Args[0])]; ok && tv.IsNil() {
				pass.Reportf(call.Pos(), "hot path: append to a fresh nil slice copies on every call")
			}
		}
	}
}

// emptySliceLocals collects locals declared with no backing array (`var
// x []T`, `x := []T{}`, `x := []T(nil)`): appending to one allocates on
// every invocation of the function.
func emptySliceLocals(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) > 0 {
					continue
				}
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil && isSlice(obj.Type()) {
						out[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil || !isSlice(obj.Type()) {
					continue
				}
				rhs := analysis.Unparen(n.Rhs[i])
				if cl, ok := rhs.(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
					out[obj] = true
				}
				if tv, ok := pass.TypesInfo.Types[rhs]; ok && tv.IsNil() {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

func isSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// captures returns the names of variables a function literal references
// that are declared in the enclosing function — the free variables that
// force the closure (and them) onto the heap.
func captures(pass *analysis.Pass, fd *ast.FuncDecl, lit *ast.FuncLit) []string {
	var out []string
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || obj.IsField() || seen[obj] {
			return true
		}
		if obj.Pos() < fd.Pos() || obj.Pos() > fd.End() {
			return true // package-level or foreign
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true // the literal's own local or parameter
		}
		seen[obj] = true
		out = append(out, obj.Name())
		return true
	})
	return out
}

// pointerShaped reports whether values of t fit in a pointer word, so
// converting one to an interface does not allocate a box.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	default:
		return "slice"
	}
}
