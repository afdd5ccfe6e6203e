package analysis

import (
	"go/ast"
)

// ExchangeErr reports discarded results of the runtime's communication
// surface. Two families are covered:
//
// Error results: the machine entry points (Run, RunStats) and
// chaos.Run/chaos.RunReal return the first rank panic as an error;
// dropping it (an expression statement, a blank assignment, or a blank
// in the error position) silently turns a deadlocked or crashed
// simulated machine into a green test.
//
// Exchanged payloads: the ghost-exchange handshake and the collectives
// hand back data their peers paid to send. A discarded PushInts or
// AlltoAllInts result means data crossed the wire — and advanced every
// participant's virtual clock — only to be dropped, which is either
// dead communication (delete the call) or a protocol bug (the value
// was needed). For AllReduce-family
// calls used purely as a synchronization point, Barrier is the
// intention-revealing replacement.
var ExchangeErr = &Analyzer{
	Name: "exchangeerr",
	Doc:  "report discarded exchange results and unchecked machine errors",
	Run:  runExchangeErr,
}

const geocolPath = "chaos/internal/geocol"

// errResultFuncs return an error that must be checked; the value is the
// error's index in the result tuple.
var errResultFuncs = map[string]int{
	machinePath + ".Run":      0,
	machinePath + ".RunStats": 1,
	"chaos/chaos.Run":         0,
	"chaos/chaos.RunReal":     1,
}

// valueResultFuncs return exchanged data that must be used: the ghost
// exchange's pushes and the payload collectives of machine.Ctx.
var valueResultFuncs = func() map[string]bool {
	m := map[string]bool{
		geocolPath + ".GhostExchange.PushInts":              true,
		geocolPath + ".GhostExchange.PushIntsInto":          true,
		geocolPath + ".GhostExchange.PushFloatsInto":        true,
		geocolPath + ".GhostExchange.UpdateIntsTouchedInto": true,
	}
	for _, name := range ctxPayloadCollectives {
		m[machinePath+".Ctx."+name] = true
	}
	return m
}()

func runExchangeErr(pass *Pass) {
	for _, pkg := range pass.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					checkDiscardedCall(pass, pkg, n.X, "discarded")
				case *ast.GoStmt:
					checkDiscardedCall(pass, pkg, n.Call, "discarded by go statement")
				case *ast.DeferStmt:
					checkDiscardedCall(pass, pkg, n.Call, "discarded by defer")
				case *ast.AssignStmt:
					checkBlankError(pass, pkg, n)
				}
				return true
			})
		}
	}
}

// checkDiscardedCall flags statement-position calls whose results carry
// an error or exchanged data.
func checkDiscardedCall(pass *Pass, pkg *Package, e ast.Expr, how string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	callee := calleeFunc(pkg.Info, call)
	if callee == nil {
		return
	}
	key := funcKey(callee)
	if _, ok := errResultFuncs[key]; ok {
		pass.Reportf(call.Pos(), "error result of %s %s: a rank panic would vanish silently", callee.Name(), how)
		return
	}
	if valueResultFuncs[key] {
		pass.Reportf(call.Pos(), "exchanged result of %s %s: peers paid to send data that is dropped (dead communication or missing consumer; Barrier synchronizes without payload)", callee.Name(), how)
	}
}

// checkBlankError flags assignments that discard the error position of
// an error-returning machine entry point: _ = machine.Run(...) and
// st, _ := machine.RunStats(...).
func checkBlankError(pass *Pass, pkg *Package, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	callee := calleeFunc(pkg.Info, call)
	if callee == nil {
		return
	}
	key := funcKey(callee)
	errIdx, isErr := errResultFuncs[key]
	if isErr {
		if errIdx < len(assign.Lhs) && isBlank(assign.Lhs[errIdx]) {
			pass.Reportf(assign.Pos(), "error result of %s assigned to _: a rank panic would vanish silently", callee.Name())
		}
		return
	}
	if valueResultFuncs[key] && len(assign.Lhs) == 1 && isBlank(assign.Lhs[0]) {
		pass.Reportf(assign.Pos(), "exchanged result of %s assigned to _: peers paid to send data that is dropped", callee.Name())
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
