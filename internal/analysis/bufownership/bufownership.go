// Package bufownership enforces the buffer-pool ownership contracts of
// DESIGN.md §9: pooled buffers must not be used after they return to
// their pool, must not be retained outside annotated retention points,
// and aliases into pooled storage must not be forwarded to deferred
// callbacks or held across a yield without a private copy.
package bufownership

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"xssd/internal/analysis"
)

// Analyzer is the bufownership check.
var Analyzer = &analysis.Analyzer{
	Name: "bufownership",
	Doc: `enforce pooled-buffer ownership (DESIGN.md §9)

The zero-alloc fast paths recycle payload buffers through per-module free
lists. That only stays correct under a strict ownership protocol, which
this analyzer checks from //xssd:pool annotations:

  //xssd:pool get     on functions handing out a pooled object
  //xssd:pool put     on free-list fields and release functions
  //xssd:pool retain  on sanctioned long-lived retention fields
  //xssd:pool alias   on functions returning views into pooled storage

Rules: (1) a pooled value must not be used after it was returned to the
pool; (2) a pooled or borrowed value must not be stored into a field that
is not an annotated retention point, nor into a map; (3) a pooled,
borrowed, or aliased value captured by an After/At timer callback needs a
private copy — the timer can fire after the pool reclaims the buffer;
(4) an alias into pooled storage must not be used across a blocking call
— the pool may compact or recycle under the yield. Borrowed parameters
(pcie.Target.MemWrite, wal.Sink.Write, ntb window writes) are tracked
like pooled values for rules 2 and 3. A fifo.Queue field is storage like
a slice: Push stores into it, and Pop, Peek and Items read an alias out
of it. The analysis is per-function and textual in statement order; loop
back edges are not modeled.`,
	Run: run,
}

// taint classes.
const (
	owned    = "pooled"
	aliased  = "aliased"
	borrowed = "borrowed"
)

type taintInfo struct {
	class  string
	defPos token.Pos
}

// annots is the package's //xssd:pool annotation sets.
type annots struct {
	getFuncs   map[types.Object]bool
	aliasFuncs map[types.Object]bool
	putFuncs   map[types.Object]bool
	putFields  map[types.Object]bool
	retFields  map[types.Object]bool
}

func run(pass *analysis.Pass) error {
	an := collect(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s := &state{
				pass:   pass,
				an:     an,
				taint:  map[types.Object]*taintInfo{},
				putPos: map[types.Object]token.Pos{},
				done:   map[types.Object]bool{},
			}
			s.seedBorrowedParams(fd)
			s.stmt(fd.Body)
		}
	}
	return nil
}

// collect gathers the package's pool annotations from doc comments.
func collect(pass *analysis.Pass) *annots {
	an := &annots{
		getFuncs:   map[types.Object]bool{},
		aliasFuncs: map[types.Object]bool{},
		putFuncs:   map[types.Object]bool{},
		putFields:  map[types.Object]bool{},
		retFields:  map[types.Object]bool{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				dir, ok := analysis.FindDirective(d.Doc, "pool")
				if !ok || len(dir.Args) == 0 {
					continue
				}
				obj := pass.TypesInfo.Defs[d.Name]
				switch dir.Args[0] {
				case "get":
					an.getFuncs[obj] = true
				case "alias":
					an.aliasFuncs[obj] = true
				case "put":
					an.putFuncs[obj] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						dir, ok := analysis.FindDirective(field.Doc, "pool")
						if !ok {
							dir, ok = analysis.FindDirective(field.Comment, "pool")
						}
						if !ok || len(dir.Args) == 0 {
							continue
						}
						for _, name := range field.Names {
							obj := pass.TypesInfo.Defs[name]
							switch dir.Args[0] {
							case "put":
								an.putFields[obj] = true
							case "retain":
								an.retFields[obj] = true
							}
						}
					}
				}
			}
		}
	}
	return an
}

// state is the per-function linear analysis.
type state struct {
	pass   *analysis.Pass
	an     *annots
	taint  map[types.Object]*taintInfo
	putPos map[types.Object]token.Pos
	blocks []token.Pos // end offsets of blocking calls, in source order
	done   map[types.Object]bool
}

// seedBorrowedParams marks []byte parameters whose ownership stays with
// the caller per the repo's structural contracts: pcie.Target.MemWrite
// (off int64, data []byte), wal.Sink.Write (p *sim.Proc, data []byte),
// and the ntb window Write (off int64, data []byte, done func()).
func (s *state) seedBorrowedParams(fd *ast.FuncDecl) {
	if fd.Type.Params == nil {
		return
	}
	var params []*ast.Ident
	var ptypes []types.Type
	for _, f := range fd.Type.Params.List {
		for _, n := range f.Names {
			obj := s.pass.TypesInfo.Defs[n]
			if obj == nil {
				return
			}
			params = append(params, n)
			ptypes = append(ptypes, obj.Type())
		}
	}
	match := func(i int, want func(types.Type) bool) bool {
		return i < len(ptypes) && want(ptypes[i])
	}
	isInt64 := func(t types.Type) bool { b, ok := t.(*types.Basic); return ok && b.Kind() == types.Int64 }
	isBytes := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().(*types.Basic)
		return ok && b.Kind() == types.Uint8
	}
	isFunc := func(t types.Type) bool { _, ok := t.Underlying().(*types.Signature); return ok }
	var borrowedIdx = -1
	switch fd.Name.Name {
	case "MemWrite":
		if len(params) == 2 && match(0, isInt64) && match(1, isBytes) {
			borrowedIdx = 1
		}
	case "Write":
		if len(params) == 2 && match(0, isSimProc) && match(1, isBytes) {
			borrowedIdx = 1
		}
		if len(params) == 3 && match(0, isInt64) && match(1, isBytes) && match(2, isFunc) {
			borrowedIdx = 1
		}
	}
	if borrowedIdx >= 0 {
		obj := s.pass.TypesInfo.Defs[params[borrowedIdx]]
		s.taint[obj] = &taintInfo{class: borrowed, defPos: params[borrowedIdx].Pos()}
	}
}

func isSimProc(t types.Type) bool { return isPtrTo(t, "sim", "Proc") }
func isSimEnv(t types.Type) bool  { return isPtrTo(t, "sim", "Env") }

// isPtrTo reports whether t points to the named type name of a package
// whose import path is pkg or ends in /pkg.
func isPtrTo(t types.Type, pkg, name string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok || n.Obj().Name() != name || n.Obj().Pkg() == nil {
		return false
	}
	path := n.Obj().Pkg().Path()
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// queueMethod returns fn's name when fn is a method of fifo.Queue, and ""
// otherwise.
func queueMethod(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isPtrTo(recv.Type(), "fifo", "Queue") {
		return fn.Name()
	}
	return ""
}

// ---- statement walk ---------------------------------------------------

func (s *state) stmt(n ast.Stmt) {
	switch n := n.(type) {
	case *ast.BlockStmt:
		for _, st := range n.List {
			s.stmt(st)
		}
	case *ast.IfStmt:
		if n.Init != nil {
			s.stmt(n.Init)
		}
		s.expr(n.Cond)
		if terminates(n.Body) {
			// The branch abandons the function (return/break/continue):
			// puts inside it must not poison the fallthrough path.
			saved := map[types.Object]token.Pos{}
			for k, v := range s.putPos {
				saved[k] = v
			}
			s.stmt(n.Body)
			s.putPos = saved
		} else {
			s.stmt(n.Body)
		}
		if n.Else != nil {
			s.stmt(n.Else)
		}
	case *ast.ForStmt:
		if n.Init != nil {
			s.stmt(n.Init)
		}
		if n.Cond != nil {
			s.expr(n.Cond)
		}
		s.stmt(n.Body)
		if n.Post != nil {
			s.stmt(n.Post)
		}
	case *ast.RangeStmt:
		s.expr(n.X)
		s.assignRange(n)
		s.stmt(n.Body)
	case *ast.SwitchStmt:
		if n.Init != nil {
			s.stmt(n.Init)
		}
		if n.Tag != nil {
			s.expr(n.Tag)
		}
		s.stmt(n.Body)
	case *ast.TypeSwitchStmt:
		if n.Init != nil {
			s.stmt(n.Init)
		}
		s.stmt(n.Assign)
		s.stmt(n.Body)
	case *ast.CaseClause:
		for _, e := range n.List {
			s.expr(e)
		}
		for _, st := range n.Body {
			s.stmt(st)
		}
	case *ast.SelectStmt:
		s.stmt(n.Body)
	case *ast.CommClause:
		if n.Comm != nil {
			s.stmt(n.Comm)
		}
		for _, st := range n.Body {
			s.stmt(st)
		}
	case *ast.ExprStmt:
		s.expr(n.X)
	case *ast.SendStmt:
		s.expr(n.Chan)
		s.expr(n.Value)
	case *ast.IncDecStmt:
		s.expr(n.X)
	case *ast.AssignStmt:
		s.assign(n)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			s.expr(e)
		}
	case *ast.DeferStmt:
		s.expr(n.Call)
	case *ast.GoStmt:
		s.expr(n.Call)
	case *ast.LabeledStmt:
		s.stmt(n.Stmt)
	}
}

func (s *state) assignRange(n *ast.RangeStmt) {
	// `for i, v := range tainted` taints v like an alias of the storage.
	if id, ok := n.X.(*ast.Ident); ok {
		if ti := s.taintOf(id); ti != nil && n.Value != nil {
			if vid, ok := n.Value.(*ast.Ident); ok {
				if obj := s.pass.TypesInfo.Defs[vid]; obj != nil {
					s.taint[obj] = &taintInfo{class: ti.class, defPos: vid.Pos()}
				}
			}
		}
	}
}

// assign handles taint introduction, puts, and retention checks.
func (s *state) assign(n *ast.AssignStmt) {
	// Evaluate RHS uses first (reads happen before the store). A call
	// with several results (`v, ok := q.Pop()`) classes the first target.
	for i, rhs := range n.Rhs {
		var target ast.Expr
		if len(n.Lhs) == len(n.Rhs) || len(n.Rhs) == 1 {
			target = n.Lhs[i]
		}
		s.assignOne(target, rhs, n.Tok == token.DEFINE)
	}
	// LHS index/selector bases are reads too.
	for _, lhs := range n.Lhs {
		switch l := lhs.(type) {
		case *ast.IndexExpr:
			s.expr(l.X)
			s.expr(l.Index)
		case *ast.StarExpr:
			s.expr(l.X)
		case *ast.SelectorExpr:
			s.expr(l.X)
		}
	}
}

// assignOne processes one target = value pair.
func (s *state) assignOne(target, rhs ast.Expr, define bool) {
	newTaint := s.taintFromRHS(rhs)

	// A put via append-to-free-list: x.putField = append(x.putField, V...)
	if call, ok := analysis.Unparen(rhs).(*ast.CallExpr); ok && s.isAppend(call) && len(call.Args) > 0 {
		if fieldObj := s.fieldOf(call.Args[0]); fieldObj != nil && s.an.putFields[fieldObj] {
			for _, arg := range call.Args[1:] {
				if id, ok := analysis.Unparen(arg).(*ast.Ident); ok {
					if ti := s.taintOf(id); ti != nil && ti.class != borrowed {
						s.putPos[s.pass.TypesInfo.Uses[id]] = call.End()
					}
				}
			}
			s.expr(rhs)
			return
		}
	}

	// Retention check on the target.
	s.checkRetention(target, rhs)

	// Taint propagation into plain local targets.
	if id, ok := analysis.Unparen(target).(*ast.Ident); ok && id.Name != "_" {
		var obj types.Object
		if define {
			obj = s.pass.TypesInfo.Defs[id]
		} else {
			obj = s.pass.TypesInfo.Uses[id]
		}
		if obj != nil {
			if newTaint != nil {
				if old := s.taint[obj]; old != nil && !define {
					// Reassignment keeps the original definition point:
					// `tail = tail[n:]` does not renew an alias's lease.
					newTaint.defPos = old.defPos
				}
				s.taint[obj] = newTaint
			} else if !define {
				// Overwritten with a clean value.
				if _, tracked := s.taint[obj]; tracked && !s.rhsMentions(rhs, obj) {
					delete(s.taint, obj)
				}
			}
		}
	}
	s.expr(rhs)
}

// taintFromRHS classifies the value produced by rhs, or nil when clean.
func (s *state) taintFromRHS(rhs ast.Expr) *taintInfo {
	rhs = analysis.Unparen(rhs)
	switch e := rhs.(type) {
	case *ast.CallExpr:
		if s.isPrivateCopy(e) {
			return nil
		}
		if fn := analysis.Callee(s.pass.TypesInfo, e); fn != nil {
			if s.an.getFuncs[fn] {
				return &taintInfo{class: owned, defPos: rhs.Pos()}
			}
			if s.an.aliasFuncs[fn] {
				return &taintInfo{class: aliased, defPos: rhs.Pos()}
			}
			// Reading a pooled queue field, like indexing a pooled slice.
			if m := queueMethod(fn); m == "Pop" || m == "Peek" || m == "Items" {
				if sel, ok := analysis.Unparen(e.Fun).(*ast.SelectorExpr); ok && s.pooledField(sel.X) {
					return &taintInfo{class: aliased, defPos: rhs.Pos()}
				}
			}
		}
	case *ast.IndexExpr:
		if s.pooledField(e.X) {
			return &taintInfo{class: aliased, defPos: rhs.Pos()}
		}
		if id, ok := analysis.Unparen(e.X).(*ast.Ident); ok {
			if ti := s.taintOf(id); ti != nil {
				return &taintInfo{class: aliased, defPos: rhs.Pos()}
			}
		}
	case *ast.SliceExpr:
		if s.pooledField(e.X) {
			return &taintInfo{class: aliased, defPos: rhs.Pos()}
		}
		if id, ok := analysis.Unparen(e.X).(*ast.Ident); ok {
			if ti := s.taintOf(id); ti != nil {
				return &taintInfo{class: ti.class, defPos: rhs.Pos()}
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if inner, ok := analysis.Unparen(e.X).(*ast.IndexExpr); ok {
				if s.pooledField(inner.X) {
					return &taintInfo{class: aliased, defPos: rhs.Pos()}
				}
				if id, ok := analysis.Unparen(inner.X).(*ast.Ident); ok && s.taintOf(id) != nil {
					return &taintInfo{class: aliased, defPos: rhs.Pos()}
				}
			}
		}
	case *ast.Ident:
		if ti := s.taintOf(e); ti != nil {
			return &taintInfo{class: ti.class, defPos: ti.defPos}
		}
	}
	return nil
}

// isPrivateCopy recognizes append(T(nil), x...) — the sanctioned
// private-copy idiom producing a clean, owned buffer.
func (s *state) isPrivateCopy(call *ast.CallExpr) bool {
	if !s.isAppend(call) || !call.Ellipsis.IsValid() || len(call.Args) != 2 {
		return false
	}
	dst := analysis.Unparen(call.Args[0])
	// The destination is T(nil): IsNil must be asked of the conversion's
	// operand — the conversion expression itself is an ordinary value.
	if conv, ok := dst.(*ast.CallExpr); ok && len(conv.Args) == 1 {
		if t, ok := s.pass.TypesInfo.Types[conv.Fun]; ok && t.IsType() {
			dst = analysis.Unparen(conv.Args[0])
		}
	}
	tv, ok := s.pass.TypesInfo.Types[dst]
	return ok && tv.IsNil()
}

// checkRetention reports rule 2: a tainted value stored into a field
// that is not an annotated retention point, or into a map.
func (s *state) checkRetention(target, rhs ast.Expr) {
	if target == nil {
		return
	}
	tainted := s.taintedWholeValues(rhs)
	if len(tainted) == 0 {
		return
	}
	switch t := analysis.Unparen(target).(type) {
	case *ast.SelectorExpr:
		f := s.fieldObjOf(t)
		if f == nil {
			return // package selector or method
		}
		if s.an.putFields[f] || s.an.retFields[f] {
			return
		}
		s.pass.Reportf(target.Pos(), "%s buffer %s retained in field %s, which is not marked //xssd:pool retain; take a private copy (DESIGN.md §9)",
			tainted[0].class, tainted[0].name, f.Name())
	case *ast.IndexExpr:
		if tv, ok := s.pass.TypesInfo.Types[t.X]; ok && tv.Type != nil {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				s.pass.Reportf(target.Pos(), "%s buffer %s retained in a map; take a private copy (DESIGN.md §9)",
					tainted[0].class, tainted[0].name)
				return
			}
		}
		if f := s.fieldOf(t.X); f != nil && !s.an.putFields[f] && !s.an.retFields[f] {
			s.pass.Reportf(target.Pos(), "%s buffer %s retained in field %s, which is not marked //xssd:pool retain; take a private copy (DESIGN.md §9)",
				tainted[0].class, tainted[0].name, f.Name())
		}
	}
}

type taintedRef struct {
	name  string
	class string
}

// taintedWholeValues finds tainted identifiers stored wholesale by rhs:
// the bare identifier, identifiers inside composite literals, and
// identifiers appended as elements. Spread-appends of byte slices copy
// the bytes and are clean; values passed to other calls are arguments,
// not retention.
func (s *state) taintedWholeValues(rhs ast.Expr) []taintedRef {
	var out []taintedRef
	var scan func(e ast.Expr, retaining bool)
	scan = func(e ast.Expr, retaining bool) {
		switch e := analysis.Unparen(e).(type) {
		case *ast.Ident:
			if !retaining {
				return
			}
			if ti := s.taintOf(e); ti != nil {
				out = append(out, taintedRef{name: e.Name, class: ti.class})
			}
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					scan(kv.Value, retaining)
				} else {
					scan(el, retaining)
				}
			}
		case *ast.CallExpr:
			if s.isAppend(e) {
				if e.Ellipsis.IsValid() && s.byteSpread(e) {
					return // spread of bytes: copies, clean
				}
				for _, arg := range e.Args[1:] {
					scan(arg, retaining)
				}
			}
		case *ast.UnaryExpr:
			scan(e.X, retaining)
		}
	}
	scan(rhs, true)
	return out
}

// byteSpread reports whether append's spread argument is a byte slice.
func (s *state) byteSpread(call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return false
	}
	tv, ok := s.pass.TypesInfo.Types[call.Args[len(call.Args)-1]]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// ---- expression walk --------------------------------------------------

func (s *state) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.Ident:
		s.use(e)
	case *ast.ParenExpr:
		s.expr(e.X)
	case *ast.SelectorExpr:
		s.expr(e.X)
	case *ast.IndexExpr:
		s.expr(e.X)
		s.expr(e.Index)
	case *ast.SliceExpr:
		s.expr(e.X)
		s.expr(e.Low)
		s.expr(e.High)
		s.expr(e.Max)
	case *ast.StarExpr:
		s.expr(e.X)
	case *ast.UnaryExpr:
		s.expr(e.X)
	case *ast.BinaryExpr:
		s.expr(e.X)
		s.expr(e.Y)
	case *ast.KeyValueExpr:
		s.expr(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			s.expr(el)
		}
	case *ast.TypeAssertExpr:
		s.expr(e.X)
	case *ast.CallExpr:
		s.call(e)
	case *ast.FuncLit:
		// A closure not handed to After/At (worker bodies passed to
		// Env.Go, completion callbacks): ownership analysis continues
		// inside with a fresh blocking horizon — the body runs in its own
		// context.
		saved := s.blocks
		s.blocks = nil
		s.stmt(e.Body)
		s.blocks = saved
	}
}

// use applies rules 1 and 4 to a read of a tainted identifier.
func (s *state) use(id *ast.Ident) {
	obj := s.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	ti := s.taint[obj]
	if ti == nil || s.done[obj] {
		return
	}
	if put, ok := s.putPos[obj]; ok && id.Pos() > put {
		s.pass.Reportf(id.Pos(), "pooled buffer %s used after it was returned to the pool", id.Name)
		s.done[obj] = true
		return
	}
	if ti.class == aliased {
		for _, b := range s.blocks {
			if b > ti.defPos && b < id.Pos() {
				s.pass.Reportf(id.Pos(), "alias %s into pooled storage is used across a blocking call; the pool may compact or recycle it during the yield — take a private copy (DESIGN.md §9)", id.Name)
				s.done[obj] = true
				return
			}
		}
	}
}

func (s *state) call(call *ast.CallExpr) {
	fn := analysis.Callee(s.pass.TypesInfo, call)

	// Rule 3: tainted values captured by After/At timer callbacks.
	if fn != nil && (fn.Name() == "After" || fn.Name() == "At") {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isSimEnv(sig.Recv().Type()) {
			for _, arg := range call.Args {
				lit, ok := analysis.Unparen(arg).(*ast.FuncLit)
				if !ok {
					continue
				}
				s.checkTimerCapture(lit)
			}
		}
	}

	// Put functions: their tainted arguments die here.
	if fn != nil && s.an.putFuncs[fn] {
		for _, arg := range call.Args {
			if id, ok := analysis.Unparen(arg).(*ast.Ident); ok {
				if obj := s.pass.TypesInfo.Uses[id]; obj != nil && s.taint[obj] != nil {
					s.putPos[obj] = call.End()
				}
			}
		}
	}

	sel, isSel := analysis.Unparen(call.Fun).(*ast.SelectorExpr)
	// Rule 2 through a queue: x.f.Push(v) stores v into field f.
	if isSel && queueMethod(fn) == "Push" {
		for _, arg := range call.Args {
			s.checkRetention(sel.X, arg)
		}
	}

	for _, arg := range call.Args {
		s.expr(arg)
	}
	if isSel {
		s.expr(sel.X)
	}

	// Record the blocking horizon after the call's own arguments were
	// evaluated: passing a value INTO a blocking call is the call's
	// business; using it after the call returns is rule 4.
	if s.isBlocking(call, fn) {
		s.blocks = append(s.blocks, call.End())
	}
}

// checkTimerCapture reports rule 3 for one timer callback literal.
func (s *state) checkTimerCapture(lit *ast.FuncLit) {
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.pass.TypesInfo.Uses[id]
		if obj == nil || s.taint[obj] == nil {
			return true
		}
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		s.pass.Reportf(lit.Pos(), "%s buffer %s captured by a deferred timer callback; the timer can fire after the pool reclaims it — take a private copy (DESIGN.md §9)", s.taint[obj].class, id.Name)
		reported = true
		return false
	})
}

// isBlocking reports whether the call can yield the simulated process:
// it receives a *sim.Proc argument or is a method on *sim.Proc.
func (s *state) isBlocking(call *ast.CallExpr, fn *types.Func) bool {
	for _, arg := range call.Args {
		if tv, ok := s.pass.TypesInfo.Types[arg]; ok && tv.Type != nil && isSimProc(tv.Type) {
			return true
		}
	}
	if fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isSimProc(sig.Recv().Type()) {
			return true
		}
	}
	return false
}

// terminates reports whether a block's last statement leaves the
// enclosing flow (return, branch, or panic-like bare call is not
// modeled — only explicit control transfers).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	}
	return false
}

// ---- small helpers ----------------------------------------------------

func (s *state) isAppend(call *ast.CallExpr) bool {
	id, ok := analysis.Unparen(call.Fun).(*ast.Ident)
	return ok && s.pass.TypesInfo.Uses[id] == types.Universe.Lookup("append")
}

func (s *state) taintOf(id *ast.Ident) *taintInfo {
	obj := s.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = s.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return nil
	}
	return s.taint[obj]
}

// fieldOf resolves expr to an annotated-field object when expr is a
// plain selector like x.field (possibly through pointers).
func (s *state) fieldOf(e ast.Expr) types.Object {
	sel, ok := analysis.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return s.fieldObjOf(sel)
}

// pooledField reports whether e is a field marked //xssd:pool put or retain.
func (s *state) pooledField(e ast.Expr) bool {
	f := s.fieldOf(e)
	return f != nil && (s.an.putFields[f] || s.an.retFields[f])
}

func (s *state) fieldObjOf(sel *ast.SelectorExpr) types.Object {
	if selInfo, ok := s.pass.TypesInfo.Selections[sel]; ok {
		if v, ok := selInfo.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	return nil
}

// rhsMentions reports whether obj appears anywhere in e.
func (s *state) rhsMentions(e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && s.pass.TypesInfo.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
