// Package maporder flags map iteration whose nondeterministic order can
// leak into the simulation: calls into the sim engine or the event tracer
// from inside a range-over-map body, and slices accumulated in map order
// that the function never sorts.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"xssd/internal/analysis"
)

// Analyzer is the maporder check.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: `forbid map-iteration order from feeding event scheduling

Go randomizes map iteration order per run. A range over a map whose body
schedules events (any call into xssd/internal/sim) or records them
((*obs.Tracer).Record, whose fingerprint is order-sensitive) makes the
event sequence — and therefore the whole run — irreproducible. Likewise a
slice appended to in map order and never sorted carries the
nondeterminism to whatever consumes it. Iterate sorted keys instead.`,
	Run: run,
}

// tainted reports whether calling fn in map order perturbs the run: every
// function of the sim engine, and the tracer's Record. The rest of obs
// (counters, histograms) is commutative and stays untainted.
func tainted(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "xssd/internal/sim":
		return true
	case "xssd/internal/obs":
		return fn.FullName() == "(*xssd/internal/obs.Tracer).Record"
	}
	return false
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// checkFunc examines the map-range statements directly inside body (not
// those of nested function literals — ast.Inspect in run visits every
// literal separately).
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	walkShallow(body, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMap(pass, rng.X) {
			return
		}
		checkMapRange(pass, body, rng)
	})
}

// walkShallow visits every node under root except the bodies of nested
// function literals (they are checked as functions in their own right).
func walkShallow(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != root {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

func isMap(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, ok = tv.Type.Underlying().(*types.Map)
	return ok
}

func checkMapRange(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.Callee(pass.TypesInfo, n); fn != nil && tainted(fn) {
				pass.Reportf(n.Pos(), "call to %s.%s inside map iteration: event order becomes map-iteration order, which is nondeterministic; iterate sorted keys", fn.Pkg().Name(), fn.Name())
			}
		case *ast.AssignStmt:
			checkAppend(pass, fnBody, rng, n)
		}
		return true
	})
}

// checkAppend reports `dst = append(dst, ...)` inside a map range when dst
// is declared outside the range and the enclosing function never passes it
// to a sort call: dst then holds elements in map-iteration order.
func checkAppend(pass *analysis.Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, as *ast.AssignStmt) {
	for i, rhs := range as.Rhs {
		call, ok := analysis.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(as.Lhs) <= i {
			continue
		}
		id, ok := analysis.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); !isBuiltin {
			continue // something shadowing the built-in append
		}
		obj := rootObj(pass, as.Lhs[i])
		if obj == nil || withinNode(rng, obj.Pos()) {
			continue // loop-local accumulator: ordering scoped to the body
		}
		if sortedInFunc(pass, fnBody, obj) {
			continue
		}
		pass.Reportf(as.Pos(), "%s accumulates elements in map-iteration order and is never sorted in this function; sort it (or iterate sorted keys) before use", obj.Name())
	}
}

// rootObj resolves the variable (or field) an assignable expression
// ultimately denotes.
func rootObj(pass *analysis.Pass, e ast.Expr) types.Object {
	switch e := analysis.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.IndexExpr:
		return rootObj(pass, e.X)
	case *ast.StarExpr:
		return rootObj(pass, e.X)
	}
	return nil
}

func withinNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// sortedInFunc reports whether body contains a sort/slices sorting call
// that mentions obj in one of its arguments.
func sortedInFunc(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := analysis.Callee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if a := rootObj(pass, unwrapArg(arg)); a == obj {
				found = true
			}
		}
		return true
	})
	return found
}

func unwrapArg(e ast.Expr) ast.Expr {
	if u, ok := analysis.Unparen(e).(*ast.UnaryExpr); ok {
		return u.X
	}
	return e
}
