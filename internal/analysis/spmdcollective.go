package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// SPMDCollective reports collective operations whose execution is
// control-dependent on a rank-valued expression. The machine simulator
// is goroutine-per-rank and every collective is a rendezvous of ALL
// ranks: a collective reached by some ranks but not others (the classic
// divergent-collective MPI deadlock) blocks the arrivers forever. The
// invariant is therefore purely about CONTROL, not data — collectives
// may freely exchange rank-dependent values, but the decision to call
// one must be identical on every rank.
//
// A "collective" is (a) a communication method of machine.Ctx that
// synchronizes all ranks, (b) any function whose doc comment carries
// the repository's "Collective." marker, or (c) transitively, any
// function or closure that calls one of those. A condition is
// "rank-valued" when it mentions machine.Ctx.Rank (or the rank field
// inside package machine) or a variable derived from it; derivation is
// tracked per function through assignments, including through calls
// such as g.LocalN(me), whose results genuinely differ across ranks.
//
// Two shapes are reported: a collective call lexically inside a
// rank-conditional branch or loop, and a collective call downstream of
// a rank-conditional return/break/continue (ranks that took the early
// exit never arrive).
var SPMDCollective = &Analyzer{
	Name: "spmdcollective",
	Doc:  "report collectives control-dependent on the SPMD rank",
	Run:  runSPMDCollective,
}

const machinePath = "chaos/internal/machine"

// ctxPayloadCollectives are the all-rank methods of machine.Ctx that
// return exchanged data. spmdcollective treats each as a rendezvous of
// every rank; exchangeerr reports a discarded result of one.
var ctxPayloadCollectives = []string{
	"AllReduceFloat", "AllReduceInt",
	"SumInt", "SumFloat", "MaxInt", "MaxFloat", "MinFloat",
	"AllGatherInt", "AllGatherInts", "AllGatherFloatsInto",
	"GatherInts", "GatherFloats",
	"BroadcastInts",
	"AlltoAllInts", "ExchangeInts", "ExchangeFloats",
	"ShareInts",
}

var collectiveDocRe = regexp.MustCompile(`\bCollective\b`)

func runSPMDCollective(pass *Pass) {
	collective := collectCollectiveKeys(pass.Packages)
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkSPMDFunc(pass, pkg, fn, collective)
			}
		}
	}
}

// collectCollectiveKeys builds the set of collective funcKeys: the
// machine.Ctx seed, every doc-marked function in the loaded source, and
// the transitive closure over the loaded call graph.
func collectCollectiveKeys(pkgs []*Package) map[string]bool {
	collective := make(map[string]bool)
	// The payload collectives, Barrier, and the unexported rendezvous
	// primitive they are all built on.
	for _, m := range append([]string{"exchange", "Barrier"}, ctxPayloadCollectives...) {
		collective[machinePath+".Ctx."+m] = true
	}
	// calls[f] lists the funcKeys f's body references.
	calls := make(map[string][]string)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				key := declKey(pkg.Path, fn)
				if docMatches(fn.Doc, collectiveDocRe) {
					collective[key] = true
				}
				if fn.Body == nil {
					continue
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
	}
	for changed := true; changed; {
		changed = false
		for key, callees := range calls {
			if collective[key] {
				continue
			}
			for _, callee := range callees {
				if collective[callee] {
					collective[key] = true
					changed = true
					break
				}
			}
		}
	}
	return collective
}

// spmdChecker walks one function body with rank-taint and
// control-dependence state.
type spmdChecker struct {
	pass       *Pass
	pkg        *Package
	collective map[string]bool
	// tainted holds rank-derived objects of the enclosing function,
	// closures included (captures stay tainted inside literals).
	tainted map[types.Object]bool
	// closureCollective marks local variables bound to function
	// literals that (transitively) perform a collective.
	closureCollective map[types.Object]bool

	// cond is the innermost active rank-tainted condition, nil outside
	// rank-conditional regions.
	cond ast.Expr
	// loops is the stack of enclosing loop bodies (for break/continue
	// divergence scoping).
	loops []ast.Node
	// exits records rank-conditional early exits; collectives lexically
	// after an exit inside its scope are divergent.
	exits []spmdExit
	// fnBody is the body of the function or literal being walked; the
	// scope of a rank-conditional return.
	fnBody ast.Node

	// collectiveCalls records every collective call site with whether
	// it was already reported, for the exit post-pass.
	collectiveCalls []spmdCall
}

type spmdExit struct {
	pos   token.Pos
	scope ast.Node // enclosing loop body for break/continue, function body for return
	fn    ast.Node // the function or literal body the exit belongs to
	what  string
	cond  ast.Expr
}

type spmdCall struct {
	call     *ast.CallExpr
	name     string
	fn       ast.Node // the function or literal body the call belongs to
	reported bool
}

func checkSPMDFunc(pass *Pass, pkg *Package, fn *ast.FuncDecl, collective map[string]bool) {
	c := &spmdChecker{
		pass:              pass,
		pkg:               pkg,
		collective:        collective,
		tainted:           make(map[types.Object]bool),
		closureCollective: make(map[types.Object]bool),
		fnBody:            fn.Body,
	}
	c.computeTaint(fn.Body)
	c.computeClosures(fn.Body)
	c.walkStmt(fn.Body)
	// Exit post-pass: a collective after a rank-conditional early exit
	// inside the exit's scope is not reached by the ranks that left.
	for _, call := range c.collectiveCalls {
		if call.reported {
			continue
		}
		for _, exit := range c.exits {
			// An exit only diverts the collectives of its own function
			// context: an SPMD body literal runs on every rank no
			// matter what its host function returns around it.
			if call.fn != exit.fn {
				continue
			}
			if call.call.Pos() > exit.pos &&
				call.call.Pos() < exit.scope.End() && call.call.Pos() > exit.scope.Pos() {
				c.pass.Reportf(call.call.Pos(),
					"SPMD divergence: collective %s is skipped by ranks taking the rank-conditional %s at line %d (condition %s)",
					call.name, exit.what, c.pass.Fset.Position(exit.pos).Line, types.ExprString(exit.cond))
				break
			}
		}
	}
}

// computeTaint finds rank-derived objects by fixed point over the
// function's assignments (closures included: captured taint persists).
func (c *spmdChecker) computeTaint(body ast.Node) {
	for changed := true; changed; {
		changed = false
		mark := func(id *ast.Ident) {
			obj := c.pkg.Info.Defs[id]
			if obj == nil {
				obj = c.pkg.Info.Uses[id]
			}
			if obj != nil && !c.tainted[obj] {
				c.tainted[obj] = true
				changed = true
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, rhs := range n.Rhs {
						if c.exprTainted(rhs) {
							if id, ok := n.Lhs[i].(*ast.Ident); ok {
								mark(id)
							}
						}
					}
				} else if len(n.Rhs) == 1 && c.exprTainted(n.Rhs[0]) {
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							mark(id)
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					switch {
					case len(n.Values) == len(n.Names):
						if c.exprTainted(n.Values[i]) {
							mark(name)
						}
					case len(n.Values) == 1:
						if c.exprTainted(n.Values[0]) {
							mark(name)
						}
					}
				}
			case *ast.RangeStmt:
				if c.exprTainted(n.X) {
					if id, ok := n.Key.(*ast.Ident); ok {
						mark(id)
					}
					if id, ok := n.Value.(*ast.Ident); ok {
						mark(id)
					}
				}
			}
			return true
		})
	}
}

// exprTainted reports whether the expression mentions the rank: a
// Rank() call, machine's own rank field, or a tainted variable.
// Function literals are opaque: a call taking an SPMD body that
// mentions the rank does not make the call's own result rank-valued.
func (c *spmdChecker) exprTainted(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := c.pkg.Info.Uses[n]; obj != nil && c.tainted[obj] {
				found = true
			}
		case *ast.CallExpr:
			if callee := calleeFunc(c.pkg.Info, n); callee != nil && funcKey(callee) == machinePath+".Ctx.Rank" {
				found = true
			}
		case *ast.SelectorExpr:
			// The rank field itself, visible inside package machine.
			if n.Sel.Name == "rank" && c.pkg.Path == machinePath {
				if sel, ok := c.pkg.Info.Selections[n]; ok && sel.Obj().Pkg() != nil && sel.Obj().Pkg().Path() == machinePath {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// computeClosures marks local variables bound to collective-performing
// function literals, iterating to cover closures that call closures.
func (c *spmdChecker) computeClosures(body ast.Node) {
	for pass := 0; pass < 4; pass++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			assign, ok := n.(*ast.AssignStmt)
			if !ok || len(assign.Lhs) != len(assign.Rhs) {
				return true
			}
			for i, rhs := range assign.Rhs {
				lit, ok := rhs.(*ast.FuncLit)
				if !ok {
					continue
				}
				id, ok := assign.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := c.pkg.Info.Defs[id]
				if obj == nil {
					obj = c.pkg.Info.Uses[id]
				}
				if obj == nil || c.closureCollective[obj] {
					continue
				}
				if c.litPerformsCollective(lit) {
					c.closureCollective[obj] = true
					changed = true
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
}

func (c *spmdChecker) litPerformsCollective(lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := c.collectiveName(call); ok {
				_ = name
				found = true
			}
		}
		return !found
	})
	return found
}

// collectiveName resolves whether the call invokes a collective and
// returns a printable name for it.
func (c *spmdChecker) collectiveName(call *ast.CallExpr) (string, bool) {
	if callee := calleeFunc(c.pkg.Info, call); callee != nil {
		if key := funcKey(callee); c.collective[key] {
			return callee.Name(), true
		}
		return "", false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := c.pkg.Info.Uses[id]; obj != nil && c.closureCollective[obj] {
			return id.Name, true
		}
	}
	return "", false
}

// walkStmt traverses statements tracking the innermost rank-tainted
// condition and loop nesting.
func (c *spmdChecker) walkStmt(n ast.Node) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.BlockStmt:
		for _, s := range n.List {
			c.walkStmt(s)
		}
	case *ast.IfStmt:
		c.walkStmt(n.Init)
		c.checkExpr(n.Cond)
		saved := c.cond
		if c.cond == nil && c.exprTainted(n.Cond) {
			c.cond = n.Cond
		}
		c.walkStmt(n.Body)
		c.walkStmt(n.Else)
		c.cond = saved
	case *ast.SwitchStmt:
		c.walkStmt(n.Init)
		c.checkExpr(n.Tag)
		tainted := n.Tag != nil && c.exprTainted(n.Tag)
		for _, clause := range n.Body.List {
			cc := clause.(*ast.CaseClause)
			for _, e := range cc.List {
				c.checkExpr(e)
				if c.exprTainted(e) {
					tainted = true
				}
			}
		}
		saved := c.cond
		if c.cond == nil && tainted {
			if n.Tag != nil {
				c.cond = n.Tag
			} else {
				c.cond = &ast.Ident{Name: "switch", NamePos: n.Switch}
			}
			// Re-scan for the actual tainted case expression, more
			// useful in the message than the bare tag.
			for _, clause := range n.Body.List {
				for _, e := range clause.(*ast.CaseClause).List {
					if c.exprTainted(e) {
						c.cond = e
						break
					}
				}
			}
		}
		for _, clause := range n.Body.List {
			for _, s := range clause.(*ast.CaseClause).Body {
				c.walkStmt(s)
			}
		}
		c.cond = saved
	case *ast.TypeSwitchStmt:
		c.walkStmt(n.Init)
		c.walkStmt(n.Body)
	case *ast.ForStmt:
		c.walkStmt(n.Init)
		c.checkExpr(n.Cond)
		saved := c.cond
		if c.cond == nil && n.Cond != nil && c.exprTainted(n.Cond) {
			c.cond = n.Cond
		}
		c.loops = append(c.loops, n.Body)
		c.walkStmt(n.Body)
		c.walkStmt(n.Post)
		c.loops = c.loops[:len(c.loops)-1]
		c.cond = saved
	case *ast.RangeStmt:
		c.checkExpr(n.X)
		saved := c.cond
		if c.cond == nil && c.exprTainted(n.X) {
			c.cond = n.X
		}
		c.loops = append(c.loops, n.Body)
		c.walkStmt(n.Body)
		c.loops = c.loops[:len(c.loops)-1]
		c.cond = saved
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			c.checkExpr(e)
		}
		if c.cond != nil {
			c.exits = append(c.exits, spmdExit{pos: n.Pos(), scope: c.funcScope(), fn: c.fnBody, what: "return", cond: c.cond})
		}
	case *ast.BranchStmt:
		if c.cond != nil && (n.Tok == token.BREAK || n.Tok == token.CONTINUE || n.Tok == token.GOTO) {
			scope := c.funcScope()
			if len(c.loops) > 0 && n.Tok != token.GOTO {
				scope = c.loops[len(c.loops)-1]
			}
			c.exits = append(c.exits, spmdExit{pos: n.Pos(), scope: scope, fn: c.fnBody, what: n.Tok.String(), cond: c.cond})
		}
	case *ast.LabeledStmt:
		c.walkStmt(n.Stmt)
	case *ast.ExprStmt:
		c.checkExpr(n.X)
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			c.checkExpr(e)
		}
		for _, e := range n.Lhs {
			c.checkExpr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.checkExpr(v)
					}
				}
			}
		}
	case *ast.GoStmt:
		c.checkExpr(n.Call)
	case *ast.DeferStmt:
		c.checkExpr(n.Call)
	case *ast.SendStmt:
		c.checkExpr(n.Chan)
		c.checkExpr(n.Value)
	case *ast.IncDecStmt:
		c.checkExpr(n.X)
	case *ast.SelectStmt:
		c.walkStmt(n.Body)
	case *ast.CommClause:
		for _, s := range n.Body {
			c.walkStmt(s)
		}
	}
}

// funcScope is the exit scope of a return: the body of the enclosing
// function or function literal.
func (c *spmdChecker) funcScope() ast.Node { return c.fnBody }

// checkExpr scans an expression for collective calls, reporting those
// under an active rank condition and recording all of them for the
// early-exit post-pass. Function literals get a fresh control context:
// their bodies run when invoked, not where they appear.
func (c *spmdChecker) checkExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			savedCond, savedLoops, savedBody := c.cond, c.loops, c.fnBody
			c.cond, c.loops, c.fnBody = nil, nil, n.Body
			c.walkStmt(n.Body)
			c.cond, c.loops, c.fnBody = savedCond, savedLoops, savedBody
			return false
		case *ast.CallExpr:
			if name, ok := c.collectiveName(n); ok {
				reported := false
				if c.cond != nil {
					c.pass.Reportf(n.Pos(),
						"SPMD divergence: collective %s is control-dependent on rank-valued condition %s; every rank must reach every collective",
						name, types.ExprString(c.cond))
					reported = true
				}
				c.collectiveCalls = append(c.collectiveCalls, spmdCall{call: n, name: name, fn: c.fnBody, reported: reported})
			}
		}
		return true
	})
}
