package analysis_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"xssd/internal/analysis"
)

// keptFields names the unexported internal/ struct fields that non-test
// code writes but never names in a read, each with the reason it stays.
// The map can only shrink: an entry whose field gains a read or
// disappears fails the test.
var keptFields = map[string]string{
	"fault.counter.point": "read as part of the counter's map key, which compares every field",
	"fault.counter.comp":  "read as part of the counter's map key, which compares every field",
}

// TestEveryFieldIsRead holds internal/ to the rule that state earns its
// place: an unexported struct field that non-test code writes, by an
// assignment, an increment or a composite-literal key, is also read
// somewhere, or it is on keptFields with a reason. Test files are not
// loaded, so a field only tests read counts as write-only.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	writeOnly := writeOnlyFields(pkgs)

	for _, name := range writeOnly {
		if _, ok := keptFields[name]; !ok {
			t.Errorf("%s: written in internal/ but never read", name)
		}
	}
	flagged := make(map[string]bool, len(writeOnly))
	for _, name := range writeOnly {
		flagged[name] = true
	}
	for name, reason := range keptFields {
		if reason == "" {
			t.Errorf("kept %s: no reason given", name)
		}
		if !flagged[name] {
			t.Errorf("kept %s: gone or now read; drop it from keptFields", name)
		}
	}
}

// writeOnlyFields returns the sorted keys (path below internal/, declaring
// type, field) of the unexported, named struct fields declared in
// internal/ that some non-test code writes and none reads. An unexported
// field is visible only in its own package, so object identity within
// one package's type-check is enough to match uses to declarations.
// Embedded fields are skipped: their promoted names use them.
func writeOnlyFields(pkgs []*analysis.Package) []string {
	const prefix = "xssd/internal/"
	var out []string
	for _, pkg := range pkgs {
		if !strings.HasPrefix(pkg.ImportPath, prefix) {
			continue
		}
		decls := map[*types.Var]string{} // field -> key
		writes := map[*ast.Ident]bool{}  // field names in write position
		written := map[*types.Var]bool{}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					ast.Inspect(n.Type, func(m ast.Node) bool {
						st, ok := m.(*ast.StructType)
						if !ok {
							return true
						}
						for _, fld := range st.Fields.List {
							for _, id := range fld.Names {
								if id.Name == "_" || id.IsExported() {
									continue
								}
								v := pkg.TypesInfo.Defs[id].(*types.Var)
								decls[v] = strings.TrimPrefix(pkg.ImportPath, prefix) + "." + n.Name.Name + "." + id.Name
							}
						}
						return true
					})
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markWrite(writes, lhs)
					}
				case *ast.IncDecStmt:
					markWrite(writes, n.X)
				case *ast.RangeStmt:
					if n.Key != nil {
						markWrite(writes, n.Key)
					}
					if n.Value != nil {
						markWrite(writes, n.Value)
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						writes[id] = true // a struct literal's key; other keys are not fields
					}
				case *ast.CompositeLit:
					// An unkeyed struct literal writes its fields in order.
					st, ok := pkg.TypesInfo.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for i, elt := range n.Elts {
						if _, keyed := elt.(*ast.KeyValueExpr); !keyed {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
		read := map[*types.Var]bool{}
		for id, obj := range pkg.TypesInfo.Uses {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			v = v.Origin()
			if writes[id] {
				written[v] = true
			} else {
				read[v] = true
			}
		}
		for v, key := range decls {
			if written[v] && !read[v] {
				out = append(out, key)
			}
		}
	}
	sort.Strings(out)
	return out
}

// markWrite records the field an assignment's left side stores to: x.f,
// or x.f[i], which stores into f's elements. Any other shape (*x.f, x.f.g)
// reads x.f to reach what it stores to.
func markWrite(writes map[*ast.Ident]bool, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			writes[x.Sel] = true
			return
		default:
			return
		}
	}
}
