package analysis

import (
	"go/ast"
	"go/types"
	"testing"
)

// TestCtxPayloadCollectivesMatchMachine checks ctxPayloadCollectives
// against the source of package machine in both directions. Every
// listed name must be an exported method of *machine.Ctx with a
// result, so deleting or renaming a collective cannot leave a dangling
// name behind. Every exported Ctx method whose body reaches the
// rendezvous (Ctx.exchange), directly or through the package's own
// helpers, must be listed, Barrier excepted (it returns nothing), so a
// new collective cannot go unseen by spmdcollective and exchangeerr.
func TestCtxPayloadCollectivesMatchMachine(t *testing.T) {
	_, pkgs, err := Load(".", machinePath)
	if err != nil {
		t.Fatalf("Load(%s): %v", machinePath, err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != machinePath {
		t.Fatalf("Load(%s) returned %d packages", machinePath, len(pkgs))
	}
	pkg := pkgs[0]
	ctx := pkg.Types.Scope().Lookup("Ctx")
	if ctx == nil {
		t.Fatalf("%s declares no Ctx", machinePath)
	}
	methods := types.NewMethodSet(types.NewPointer(ctx.Type()))
	listed := make(map[string]bool, len(ctxPayloadCollectives))
	for _, name := range ctxPayloadCollectives {
		if listed[name] {
			t.Errorf("%s is listed twice", name)
		}
		listed[name] = true
		sel := methods.Lookup(pkg.Types, name)
		if sel == nil || !ast.IsExported(name) {
			t.Errorf("%s is not an exported method of *machine.Ctx", name)
			continue
		}
		if sel.Obj().Type().(*types.Signature).Results().Len() == 0 {
			t.Errorf("Ctx.%s returns nothing, so it carries no payload", name)
		}
	}

	// reaches is the set of the package's functions and methods whose
	// body calls, transitively, the rendezvous.
	calls := make(map[string][]string)
	var exported []string
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := declKey(pkg.Path, fn)
			if fn.Name.IsExported() && key == machinePath+".Ctx."+fn.Name.Name {
				exported = append(exported, fn.Name.Name)
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(pkg.Info, call); callee != nil {
						calls[key] = append(calls[key], funcKey(callee))
					}
				}
				return true
			})
		}
	}
	reaches := map[string]bool{machinePath + ".Ctx.exchange": true}
	for changed := true; changed; {
		changed = false
		for key, callees := range calls {
			for _, callee := range callees {
				if !reaches[key] && reaches[callee] {
					reaches[key], changed = true, true
				}
			}
		}
	}
	if !reaches[machinePath+".Ctx.Barrier"] {
		t.Fatal("Ctx.Barrier does not reach Ctx.exchange: the call graph is not being read")
	}
	for _, name := range exported {
		if reaches[machinePath+".Ctx."+name] && !listed[name] && name != "Barrier" {
			t.Errorf("Ctx.%s reaches the rendezvous but is not in ctxPayloadCollectives", name)
		}
	}
}
