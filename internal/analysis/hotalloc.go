package analysis

import (
	"go/ast"
	"go/types"
)

// HotAlloc reports allocating constructs inside the loops of functions
// annotated //chaos:hotpath. The annotation is the mechanical form of
// the ROADMAP's "allocation-free hot paths" direction: the bench CI job
// records allocs/op trajectories, and this analyzer keeps the annotated
// inner loops — gain buckets, climb loops, match routing, ghost
// exchanges — from regrowing per-iteration allocations between bench
// runs.
//
// Inside a hot-path function the analyzer flags, per loop iteration:
// make calls, map/slice composite literals, closures (a func literal
// born inside a loop escapes to the heap on every pass), and interface
// boxing at call sites (a concrete value passed to an interface
// parameter). It flags any fmt call anywhere in the function — one
// Sprintf in a refinement sweep dwarfs everything else the annotation
// protects. And it flags `x = append(x, ...)` inside a loop when x is
// declared in the function with no capacity evidence: no make with an
// explicit length or capacity, and no x = x[:0]-style reslice reset
// anywhere in the function (the repository's amortized-reuse idiom,
// which reaches steady-state capacity and stops allocating).
//
// Setup allocations before the loops are deliberately NOT flagged —
// hot-path functions may prepare scratch buffers; what they must not do
// is allocate per iteration.
//
// Anywhere in a hot-path function, loop or not, it also flags type
// assertions to an interface type (x.(I), comma-ok too) and type
// switches with an interface case. Since Go 1.22 the runtime caches
// the outcome of such an assertion per site in a table it grows at
// moments nobody controls, and the growth allocates: on go1.24, 2 M
// assertions at one site to an interface, over four dynamic types, made
// 4 heap allocations. Assertions to a concrete type compare type words
// and never allocate.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "report per-iteration allocations in //chaos:hotpath functions",
	Run:  runHotAlloc,
}

// hotPathDirective is the annotation contract: a directive line in the
// function's doc comment.
const hotPathDirective = "//chaos:hotpath"

func runHotAlloc(pass *Pass) {
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !docDirective(fn.Doc, hotPathDirective) {
					continue
				}
				checkHotFunc(pass, pkg, fn)
			}
		}
	}
}

func checkHotFunc(pass *Pass, pkg *Package, fn *ast.FuncDecl) {
	hinted := capacityHinted(pkg, fn.Body)

	var walk func(n ast.Node, inLoop bool)
	walk = func(n ast.Node, inLoop bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			walk(n.Init, inLoop)
			walkExpr(pass, pkg, fn, n.Cond, inLoop, hinted, walk)
			walk(n.Body, true)
			walk(n.Post, true)
			return
		case *ast.RangeStmt:
			walkExpr(pass, pkg, fn, n.X, inLoop, hinted, walk)
			walk(n.Body, true)
			return
		case *ast.AssignStmt:
			checkAppendGrowth(pass, pkg, fn, n, inLoop, hinted)
			for _, e := range n.Rhs {
				walkExpr(pass, pkg, fn, e, inLoop, hinted, walk)
			}
			for _, e := range n.Lhs {
				walkExpr(pass, pkg, fn, e, inLoop, hinted, walk)
			}
			return
		case *ast.BlockStmt:
			for _, s := range n.List {
				walk(s, inLoop)
			}
			return
		case *ast.IfStmt:
			walk(n.Init, inLoop)
			walkExpr(pass, pkg, fn, n.Cond, inLoop, hinted, walk)
			walk(n.Body, inLoop)
			walk(n.Else, inLoop)
			return
		case *ast.SwitchStmt:
			walk(n.Init, inLoop)
			walkExpr(pass, pkg, fn, n.Tag, inLoop, hinted, walk)
			walk(n.Body, inLoop)
			return
		case *ast.TypeSwitchStmt:
			walk(n.Init, inLoop)
			for _, cc := range n.Body.List {
				for _, e := range cc.(*ast.CaseClause).List {
					if t := pkg.Info.TypeOf(e); t != nil && types.IsInterface(t) {
						pass.Reportf(e.Pos(), "hot path %s: type switch case on interface %s (the runtime's per-site assertion cache may allocate; switch on concrete types)", fn.Name.Name, types.TypeString(t, types.RelativeTo(pkg.Types)))
					}
				}
			}
			walk(n.Body, inLoop)
			return
		case *ast.CaseClause:
			for _, e := range n.List {
				walkExpr(pass, pkg, fn, e, inLoop, hinted, walk)
			}
			for _, s := range n.Body {
				walk(s, inLoop)
			}
			return
		case *ast.ExprStmt:
			walkExpr(pass, pkg, fn, n.X, inLoop, hinted, walk)
			return
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				walkExpr(pass, pkg, fn, e, inLoop, hinted, walk)
			}
			return
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							walkExpr(pass, pkg, fn, v, inLoop, hinted, walk)
						}
					}
				}
			}
			return
		case *ast.LabeledStmt:
			walk(n.Stmt, inLoop)
			return
		case *ast.GoStmt:
			walkExpr(pass, pkg, fn, n.Call, inLoop, hinted, walk)
			return
		case *ast.DeferStmt:
			walkExpr(pass, pkg, fn, n.Call, inLoop, hinted, walk)
			return
		case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
			return
		case *ast.SendStmt:
			walkExpr(pass, pkg, fn, n.Chan, inLoop, hinted, walk)
			walkExpr(pass, pkg, fn, n.Value, inLoop, hinted, walk)
			return
		case *ast.SelectStmt:
			walk(n.Body, inLoop)
			return
		case *ast.CommClause:
			for _, s := range n.Body {
				walk(s, inLoop)
			}
			return
		}
	}
	walk(fn.Body, false)
}

// walkExpr scans one expression in statement context: allocation checks
// apply at the current loop depth, and nested statements (function
// literal bodies) continue the walk — a closure's body runs at least as
// hot as the point where the closure is used.
func walkExpr(pass *Pass, pkg *Package, fn *ast.FuncDecl, e ast.Expr, inLoop bool, hinted map[types.Object]bool, walk func(ast.Node, bool)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if inLoop {
				pass.Reportf(n.Pos(), "hot path %s: closure allocated per loop iteration (hoist the func literal out of the loop)", fn.Name.Name)
			}
			walk(n.Body, inLoop)
			return false
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				if t := pkg.Info.TypeOf(n.Type); t != nil && types.IsInterface(t) {
					pass.Reportf(n.Pos(), "hot path %s: type assertion to interface %s (the runtime's per-site assertion cache may allocate; assert to a concrete type)", fn.Name.Name, types.TypeString(t, types.RelativeTo(pkg.Types)))
				}
			}
		case *ast.CallExpr:
			checkHotCall(pass, pkg, fn, n, inLoop)
		case *ast.CompositeLit:
			if inLoop {
				switch pkg.Info.TypeOf(n).Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "hot path %s: slice literal allocates per loop iteration", fn.Name.Name)
				case *types.Map:
					pass.Reportf(n.Pos(), "hot path %s: map literal allocates per loop iteration", fn.Name.Name)
				}
			}
		}
		return true
	})
}

// checkHotCall flags allocating calls: make in loops, fmt anywhere, and
// interface boxing of concrete arguments in loops.
func checkHotCall(pass *Pass, pkg *Package, fn *ast.FuncDecl, call *ast.CallExpr, inLoop bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			if obj.Name() == "make" && inLoop {
				pass.Reportf(call.Pos(), "hot path %s: make allocates per loop iteration (hoist and reuse the buffer)", fn.Name.Name)
			}
			return
		}
	}
	callee := calleeFunc(pkg.Info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "hot path %s: fmt.%s allocates and boxes its operands (format outside the hot path)", fn.Name.Name, callee.Name())
		return
	}
	if !inLoop {
		return
	}
	// Interface boxing: concrete argument, interface parameter.
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.IsType() { // conversion, not a call
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			param = sig.Params().At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		at := pkg.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "hot path %s: argument boxes a concrete %s into interface %s per loop iteration", fn.Name.Name, at, param)
	}
}

// checkAppendGrowth flags x = append(x, ...) in a loop when x has no
// capacity evidence in this function.
func checkAppendGrowth(pass *Pass, pkg *Package, fn *ast.FuncDecl, assign *ast.AssignStmt, inLoop bool, hinted map[types.Object]bool) {
	if !inLoop || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return
	}
	obj := pkg.Info.Uses[lhs]
	if obj == nil {
		obj = pkg.Info.Defs[lhs]
	}
	if obj == nil || obj.Pkg() == nil {
		return
	}
	// Only locals of this function: appends to fields or package vars
	// amortize across calls and stay out of scope here.
	if fnObj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
		if obj.Parent() == nil || !scopeWithin(obj.Parent(), fnObj.Scope()) {
			return
		}
	}
	if hinted[obj] {
		return
	}
	pass.Reportf(assign.Pos(), "hot path %s: append grows %s without a capacity hint (preallocate with make(..., 0, cap) or reuse via %s = %s[:0])", fn.Name.Name, lhs.Name, lhs.Name, lhs.Name)
}

func scopeWithin(s, outer *types.Scope) bool {
	for ; s != nil; s = s.Parent() {
		if s == outer {
			return true
		}
	}
	return false
}

// capacityHinted collects local slice variables with capacity evidence
// anywhere in the function body: assigned a make with an explicit
// length or capacity, assigned from a slice expression (the x = x[:0]
// reuse idiom and friends), or assigned the result of a call (the
// callee sized it).
func capacityHinted(pkg *Package, body ast.Node) map[types.Object]bool {
	hinted := make(map[types.Object]bool)
	mark := func(lhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		if obj != nil {
			hinted[obj] = true
		}
	}
	consider := func(lhs, rhs ast.Expr) {
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.SliceExpr:
			mark(lhs)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make":
						// make([]T, n) or make([]T, n, c) with a non-zero
						// size expresses intent; make([]T, 0) does not.
						if len(rhs.Args) >= 3 {
							mark(lhs)
						} else if len(rhs.Args) == 2 && !isZeroLit(rhs.Args[1]) {
							mark(lhs)
						}
					case "append":
						return // growth, not evidence
					}
					return
				}
			}
			mark(lhs) // sized by the callee
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					consider(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					consider(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return hinted
}

func isZeroLit(e ast.Expr) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Value == "0"
}
