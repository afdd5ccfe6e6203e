package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly enforces "a runtime path needs a non-test caller": it reports
// each exported func, method, type, var and const of an internal package
// that no non-test file references outside its own declaration, and each
// exported field of an exported type no non-test code writes. Exempt:
// what a public package's API reaches, and methods that let their type
// satisfy an interface. A partial load reports nothing. See ANALYZERS.md.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "report exported internal names that only tests reference (fields: only tests write)",
	Run:  runTestOnly,
}

func runTestOnly(pass *Pass) {
	root := pass.Packages[0].wholeRoot
	if root == "" {
		return
	}
	internal := func(p *Package) bool {
		return strings.Contains("/"+strings.TrimPrefix(p.Path, root)+"/", "/internal/")
	}
	public := make(map[string]bool) // what a public package's API reaches
	var walk func(types.Type)
	walk = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			if public[objKey(t.Obj())] {
				return
			}
			public[objKey(t.Obj())] = true
			for i := range t.NumMethods() {
				if m := t.Method(i); m.Exported() {
					public[objKey(m)] = true
					walk(m.Type())
				}
			}
			for i := 0; structOf(t) != nil && i < structOf(t).NumFields(); i++ {
				if f := structOf(t).Field(i); f.Exported() {
					public[fieldKey(t, f.Name())] = true
					walk(f.Type())
				}
			}
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := range tup.Len() {
					walk(tup.At(i).Type())
				}
			}
		}
	}
	// Keys, not objects: importers see a package through export data.
	cands := make(map[string]types.Object)
	for _, pkg := range pass.Packages {
		for _, obj := range pkg.Info.Defs {
			switch {
			case obj == nil || !obj.Exported() || objKey(obj) == "":
			case !internal(pkg):
				if pkg.Types.Name() != "main" {
					walk(obj.Type())
				}
			default:
				cands[objKey(obj)] = obj
				tn, _ := obj.(*types.TypeName)
				for i := 0; tn != nil && !tn.IsAlias() && structOf(tn.Type()) != nil && i < structOf(tn.Type()).NumFields(); i++ {
					if f := structOf(tn.Type()).Field(i); f.Exported() {
						cands[fieldKey(tn.Type(), f.Name())] = f
					}
				}
			}
		}
	}

	used := make(map[string]bool) // referenced names and written fields
	// error and the interfaces the packages declare or import
	interfaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	for _, pkg := range pass.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				// A use lies outside unit (a func or one spec) and recv.
				unit, recv := ast.Node(d), ast.Node(nil)
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = fd.Recv
				}
				ast.Inspect(d, func(n ast.Node) bool {
					var written []ast.Expr
					switch n := n.(type) {
					case ast.Spec:
						unit = n
					case *ast.Ident:
						if obj := pkg.Info.Uses[n]; obj != nil && !within(unit, obj.Pos()) && !within(recv, n.Pos()) {
							used[objKey(obj)] = true
						}
					case *ast.AssignStmt:
						written = n.Lhs
					case *ast.IncDecStmt:
						written = []ast.Expr{n.X}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							written = []ast.Expr{n.X}
						}
					case *ast.CompositeLit:
						for i, e := range n.Elts {
							if t := pkg.Info.Types[n].Type; structOf(t) != nil {
								name := structOf(t).Field(i).Name() // positional
								if kv, ok := e.(*ast.KeyValueExpr); ok {
									name = kv.Key.(*ast.Ident).Name
								}
								used[fieldKey(t, name)] = true
							}
						}
					}
					for _, e := range written {
						x, ok := ast.Unparen(e).(*ast.SelectorExpr)
						if sel := pkg.Info.Selections[x]; ok && sel != nil && sel.Kind() == types.FieldVal {
							t := sel.Recv() // walk to the struct that declares a promoted field
							for _, i := range sel.Index()[:len(sel.Index())-1] {
								t = structOf(t).Field(i).Type()
							}
							used[fieldKey(t, x.Sel.Name)] = true
						}
					}
					return true
				})
			}
		}
		for _, p := range append(pkg.Types.Imports(), pkg.Types) {
			for _, name := range p.Scope().Names() {
				if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					interfaces[it] = true
				}
			}
		}
	}

next:
	for k, obj := range cands {
		if used[k] || public[k] {
			continue
		}
		for it := range interfaces { // a method that lets its type satisfy one
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil &&
				types.NewMethodSet(it).Lookup(obj.Pkg(), obj.Name()) != nil &&
				(types.Implements(sig.Recv().Type(), it) || types.Implements(types.NewPointer(sig.Recv().Type()), it)) {
				continue next
			}
		}
		what := "has no non-test reference: delete it, move it into a _test.go file"
		if objKey(obj) == "" {
			what = "is written by no non-test code: delete it"
		}
		pass.Reportf(obj.Pos(), "%s %s, or keep it under a reason naming the test", k[strings.LastIndex(k, "/")+1:], what)
	}
}

func within(n ast.Node, pos token.Pos) bool { return n != nil && n.Pos() <= pos && pos < n.End() }

// objKey names a package-level object or a method of a named type alike
// from source and from export data; "" for anything else.
func objKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok && funcKey(f) != f.Name() {
		return funcKey(f)
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// fieldKey names field f of the named struct type t, or *t.
func fieldKey(t types.Type, f string) string {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return objKey(n.Obj()) + "." + f
	}
	return ""
}

// structOf returns the struct type underlying t or *t, or nil.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
