package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"xssd/internal/analysis"
)

// kept names the exported internal/ declarations that stay without a
// non-test caller, each with the reason it stays. The map can only shrink:
// an entry whose name gains a caller or disappears fails the test.
var kept = map[string]string{
	// Capabilities a roadmap item will call.
	"fault.Parse":       "the failure bundle (ROADMAP item 6) reads a plan back from its text",
	"fault.Plan.Encode": "the failure bundle (ROADMAP item 6) writes a plan as text",
	"ftl.FTL.Trim":      "the FTL oracle (ROADMAP item 1) drives trim",

	// Test hooks that observe state no other path reads.
	"btree.Tree.CheckInvariants":     "tests check the tree's structure after every mutation; nothing else walks it",
	"db.Engine.RowCountIn":           "tests count a table's rows on either store; the engine never counts them",
	"nand.Array.IsBad":               "tests read a block's bad mark, which the FTL only acts on",
	"nand.Array.MarkBad":             "tests mark blocks bad to drive the FTL's allocation retry",
	"nand.Array.PeekPage":            "tests read a page's stored bytes without spending a timed read",
	"ntb.Bridge.Link":                "tests add the link's serialization time into a chunk's wire time",
	"nvme.CompletionQueue.Seq":       "tests read the queue's sequence counter, which only stamps completions",
	"obs.Histogram.N":                "tests read the observation count beside Sum without building a Summary",
	"obs.Histogram.Sum":              "tests read the exact running sum, which a Summary carries only as a float mean",
	"obs.Tracer.Count":               "tests count retained trace events of one kind",
	"obs.Tracer.Total":               "tests read how many events a bounded tracer has seen, retained or not",
	"pm.Bank.Bus":                    "tests count bank bus operations to see whether a write reached the bank",
	"sim.Env.Switches":               "tests count the coroutine switches a chunk chain or a write-combining train costs",
	"tpcc.DecodeHistory":             "the consistency checks read history rows back; the workload only writes them",
	"villars.Device.Link":            "tests compute wire time from the device's PCIe link",
	"villars.transportModule.Mode":   "tests read a device's replication role after setup and promotion",
	"villars.transportModule.Scheme": "tests read the scheme a device's transport runs after setup and promotion",

	// Test drivers: only tests run them, by design.
	"analysis/analysistest.Run": "the analyzers' golden-file harness",
	"fault.ActionNone":          "the zero ActionKind a Decision carries when no rule fired; tests compare Act against it",
	"sim.Env.Run":               "tests run a bare Env until its queue empties; programs bound every run with RunUntil",
}

// TestEveryExportHasACaller holds internal/ to the rule that an exported
// name earns its place: non-test code somewhere in the module references
// it, it implements a method of an interface declared in the module, it
// is a String or Error method, or it is on the kept map with a reason.
// Test files are not loaded, so a name only tests call counts as unused.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	unused := unusedExports(pkgs)

	for _, name := range unused {
		if _, ok := kept[name]; !ok {
			t.Errorf("%s: exported from internal/ with no non-test caller", name)
		}
	}
	flagged := make(map[string]bool, len(unused))
	for _, name := range unused {
		flagged[name] = true
	}
	for name, reason := range kept {
		if reason == "" {
			t.Errorf("kept %s: no reason given", name)
		}
		if !flagged[name] {
			t.Errorf("kept %s: gone or now called; drop it from kept", name)
		}
	}
}

// unusedExports returns the sorted keys (path below internal/, then
// receiver, then name) of the exported internal/ declarations that no
// non-test code references and that no rule exempts. Objects are matched
// by key, not identity: a package sees its imports through export data,
// whose objects are not the ones its dependencies were checked with.
func unusedExports(pkgs []*analysis.Package) []string {
	const prefix = "xssd/internal/"
	decls := map[string]types.Object{}  // candidate key -> object
	own := map[string][2]token.Pos{}    // func key -> its own declaration
	recvIdents := map[*ast.Ident]bool{} // receiver type names
	var ifaces []*types.Interface
	for _, pkg := range pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams() != nil {
				continue
			}
			if it, ok := named.Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
		if !strings.HasPrefix(pkg.ImportPath, prefix) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.TypesInfo.Defs[d.Name]
					own[objKey(obj)] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv != nil {
						recvIdents[recvName(d.Recv.List[0].Type)] = true
					}
					if d.Name.IsExported() {
						decls[objKey(obj)] = obj
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								obj := pkg.TypesInfo.Defs[s.Name]
								decls[objKey(obj)] = obj
							}
							it, ok := s.Type.(*ast.InterfaceType)
							if !ok {
								continue
							}
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									if n.IsExported() {
										obj := pkg.TypesInfo.Defs[n]
										decls[objKey(obj)] = obj
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									obj := pkg.TypesInfo.Defs[n]
									decls[objKey(obj)] = obj
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, pkg := range pkgs {
		for id, obj := range pkg.TypesInfo.Uses {
			if recvIdents[id] {
				continue // a method's receiver does not use its type
			}
			if obj.Pkg() == nil {
				continue // universe objects
			}
			if _, ok := obj.(*types.Func); !ok && obj.Parent() != obj.Pkg().Scope() {
				continue // fields and locals are not package-level names
			}
			k := objKey(obj)
			if span, ok := own[k]; ok && span[0] <= id.Pos() && id.Pos() < span[1] {
				continue // recursion is not a caller
			}
			used[k] = true
		}
	}

	var out []string
	for k, obj := range decls {
		if used[k] || exempt(obj, ifaces) {
			continue
		}
		out = append(out, strings.TrimPrefix(k, prefix))
	}
	sort.Strings(out)
	return out
}

// objKey names obj by package path, receiver type and name.
func objKey(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Path() + "." + name
}

// exempt reports whether a method needs no caller of its own: it is a
// String or Error method, or it implements a method of an interface
// declared in the module, so calls reach it through that interface.
func exempt(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return false
	}
	if fn.Name() == "String" || fn.Name() == "Error" {
		return true
	}
	recv := sig.Recv().Type()
	if _, ok := recv.Underlying().(*types.Interface); ok {
		return false // an interface method needs a call through the interface
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	for _, it := range ifaces {
		if hasMethod(it, fn.Name()) && implements(mset, it) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// implements reports whether mset has every method of it with the same
// signature. Signatures compare as text, so the two sides may come from
// different type-checker universes.
func implements(mset *types.MethodSet, it *types.Interface) bool {
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		sel := mset.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigString(sel.Obj().Type()) != sigString(m.Type()) {
			return false
		}
	}
	return true
}

// sigString spells a signature's parameter and result types, without
// names or receiver.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	var b strings.Builder
	for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// recvName returns the type name of a method receiver expression: T, *T,
// T[P] or *T[P].
func recvName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}
